"""Adaptive explicit time stepping for the three-compartment model.

Embedded Dormand-Prince 5(4) pair with proportional-integral step-size
control and a quartic interpolant for dense output, specialized to the
three-component right-hand side: plain float arithmetic written out per
component, with no array or generator overhead in a step. A step that
takes no sample and clamps nothing makes no call at all: each stage
writes the right-hand side out in `rhs_closure`'s operation order, with
the rates and the tableau in locals; max, min and abs are comparisons
that keep the builtins' operand order; and each state's norm is computed
once. `rhs_closure` stays the definition, and gives the first slope, the
startup step guess and the slope after a clamp. The step loop is written
once, in `_advance`, which `integrate` runs from t = 0. The model is
non-stiff across the studied parameter ranges (rates stay below ~27 in
rescaled units); if a caller ever pushes it into a stiff corner, reducing
max_step is the escape hatch.

Dense output is evaluated in blocks, not in the step loop: a step that
owns samples packs its loop-top state, its stage slopes and its sample
count into one record, and `_flush` evaluates a block of records in one
numpy pass, with the same elementwise operations in the same order, so
every sample has the bits a scalar evaluation gives. A sample that dips
past the clamp band rejects its step after the fact: the loop is resumed
from that step's record as the rejection would have resumed it. A run
that dips, or that comes within abs_tol of zero, is likely to dip every
few steps from then on, and so evaluates its later samples in the step
that owns them, in floats, with the same operations again.

Positivity: the closed positive octant is invariant for the exact flow,
so negative values can only be discretization or roundoff noise. Small
undershoots (within abs_tol * 1e-3) are clamped to zero; a step that
dips below that band is rejected and retried at half the step size.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .model import CellState, ModelParameters, _positive, _real, rhs_closure

__all__ = ["IntegrationConfig", "Trajectory", "IntegrationError", "integrate"]

# Dormand-Prince coefficients. A and B define the embedded 5(4) pair (the
# right-hand side does not depend on t, so the stage times go unused); E is
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
# _P[s - 1][j] as _Psj, for the unrolled _dense_coeffs; row 1 (stage 2) is
# all zeros and column 0 is (1, 0, ..., 0), so neither gets a name
_P11, _P12, _P13 = _P[0][1:]
_P31, _P32, _P33 = _P[2][1:]
_P41, _P42, _P43 = _P[3][1:]
_P51, _P52, _P53 = _P[4][1:]
_P61, _P62, _P63 = _P[5][1:]
_P71, _P72, _P73 = _P[6][1:]

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 10.0
# PI controller exponents for a 5th order error estimate
_PI_ALPHA = 0.17
_PI_BETA = 0.04
_MAX_STEPS = 10_000_000
# every sample time and sample row is held in memory at once, so a tiny
# stride would exhaust it
_MAX_SAMPLES = 10_000_000
# A step that owns samples is recorded as t, x, y, z, k1 (3), h as used,
# norm_old, err_prev and steps at its loop top, then k3 ... k7 (3 each) and
# its sample count, all as doubles; _BLOCK records are evaluated at a time
_RECORD = struct.Struct("27d")
_BLOCK = 256


@dataclass(frozen=True)
class IntegrationConfig:
    """Tolerance and sampling settings for one integration run.

    rel_tol is dimensionless, abs_tol is in cells/kg; the local error per
    step is held below abs_tol + rel_tol * ||state||. Times are in days
    (or rescaled units if the parameters are rescaled). output_stride is
    the sampling interval of the returned trajectory, at most
    _MAX_SAMPLES samples; None means t_end / 2000. max_step may not
    imply more than _MAX_STEPS steps. initial_step None means an
    automatic startup guess.
    """

    t_end: float
    rel_tol: float = 1e-8
    abs_tol: float = 1e-3
    max_step: Optional[float] = None
    initial_step: Optional[float] = None
    output_stride: Optional[float] = None

    def __post_init__(self):
        # each setting is stored as a finite float, so the step loop runs on
        # floats; the last three may be None
        for name in ("t_end", "rel_tol", "abs_tol", "max_step", "initial_step", "output_stride"):
            value = getattr(self, name)
            if value is None and name in ("max_step", "initial_step", "output_stride"):
                continue
            value = _real(name, value) if name == "rel_tol" else _positive(name, value)
            if name == "rel_tol" and not 1e-12 <= value <= 1e-3:
                raise ValueError(f"rel_tol must lie in [1e-12, 1e-3], got {value}")
            object.__setattr__(self, name, value)
        if self.t_end / self.stride > _MAX_SAMPLES:
            raise ValueError(f"output_stride {self.stride} gives over {_MAX_SAMPLES} samples")
        # every accepted step is at most max_step long, so this many would hit the step limit
        if self.max_step is not None and self.t_end / self.max_step > _MAX_STEPS:
            raise ValueError(f"max_step {self.max_step} needs over {_MAX_STEPS} steps")

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

    def __reduce__(self):
        # the default rebuilds from self.args, the formatted message alone
        return type(self), (self.reason, self.time, self.state, self.trajectory)


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
    t_end = config.t_end
    f = rhs_closure(params)

    x, y, z = initial.as_tuple()
    k1x, k1y, k1z = f(x, y, z)
    if not (math.isfinite(k1x) and math.isfinite(k1y) and math.isfinite(k1z)):
        raise IntegrationError("non-finite derivative", 0.0, (x, y, z),
                               Trajectory(np.zeros(1), np.array([(x, y, z)])))

    # max(|x|, |y|, |z|) of the current state; an accepted step hands its
    # end state's norm on, so each state's norm is computed once
    norm_old = max(abs(x), abs(y), abs(z))
    h = _initial_step(f, (x, y, z), (k1x, k1y, k1z), config.abs_tol + config.rel_tol * norm_old) \
        if config.initial_step is None else float(config.initial_step)
    max_step = config.max_step if config.max_step is not None else math.inf
    h = min(h, max_step, t_end)

    start = (0.0, x, y, z, k1x, k1y, k1z, h, norm_old, 1e-4, _FAC_MAX, 0)
    return Trajectory(*_advance(params, f, config, start))


def _sample_grid(stride: float, t_end: float) -> np.ndarray:
    """The interior sample times of a run to t_end: stride, stride + stride, ...

    while short of t_end - 1e-9 * stride. np.add.accumulate adds in
    sequence, so each time has the bits of the running sum.
    """
    # t_end / stride is at most _MAX_SAMPLES, so the running sum's relative
    # error stays below 2e-9 and two terms past t_end / stride reach the end
    grid = np.add.accumulate(np.full(int(t_end / stride) + 2, stride))
    return grid[:np.searchsorted(grid, t_end - 1e-9 * stride)]


def _advance(params, f, config, state):
    """The DP5 step loop, from the controller state at a loop top to config.t_end.

    state is (t, x, y, z, k1x, k1y, k1z, h, norm_old, err_prev, fac_cap,
    steps); a dense-output dip resumes the loop from such a state. Returns
    the sample times (state's t, `_sample_grid(config.stride, t_end)`,
    t_end) and the sample rows (state's, the interpolated ones, the end
    state).
    """
    t_end = config.t_end
    t0, x, y, z = state[:4]
    abs_tol = config.abs_tol
    rel_tol = config.rel_tol
    max_step = config.max_step if config.max_step is not None else math.inf
    band = abs_tol * 1e-3
    h_min = 1e-14 * t_end
    inf = math.inf
    # the rates, the tableau and the controller constants as locals, which
    # the step loop reads faster than closure cells or module globals
    a1, a2, p1, p2 = params.a1, params.a2, params.p1, params.p2
    d1, d2, d3, fb = params.d1, params.d2, params.d3, params.k
    a1x2 = 2.0 * a1
    a2x2 = 2.0 * a2
    A21, A31, A32, A41, A42, A43 = _A21, _A31, _A32, _A41, _A42, _A43
    A51, A52, A53, A54 = _A51, _A52, _A53, _A54
    A61, A62, A63, A64, A65 = _A61, _A62, _A63, _A64, _A65
    B1, B3, B4, B5, B6 = _B1, _B3, _B4, _B5, _B6
    E1, E3, E4, E5, E6, E7 = _E1, _E3, _E4, _E5, _E6, _E7
    safety, fac_min, fac_max = _SAFETY, _FAC_MIN, _FAC_MAX
    neg_alpha, pi_beta, max_steps = -_PI_ALPHA, _PI_BETA, _MAX_STEPS

    grid = _sample_grid(config.stride, t_end)
    rows = np.empty((grid.size + 2, 3))
    rows[0] = (x, y, z)
    # the grid again as floats, closed by inf so that no step reaches past it
    grid_list = grid.tolist() + [inf]
    # samples kept so far: rows[1:kept + 1] holds those at grid[:kept]
    kept = 0
    records = bytearray()
    limit = _BLOCK * _RECORD.size
    pack = _RECORD.pack
    # Once a run dips, or a sampling step ends with a component below
    # abs_tol, where the interpolant's error can reach below zero, the run
    # is in_step: it evaluates each later step's samples in that step, in
    # floats, and rejects a dipping step at once. Such runs, those washing
    # out to zero say, dip every few sampling steps, and in a block each
    # dip would cost a numpy pass (the time of about five steps) and the
    # steps taken after it.
    in_step = False
    flat = memoryview(rows.reshape(-1))

    # In the loop, max, min and abs are written as comparisons. Each max(a,
    # b, ...) keeps its first operand unless a later one compares strictly
    # greater (min: smaller), as the builtins do, so a NaN decides the
    # result in first place and is skipped anywhere else. abs is a sign
    # test that leaves -0.0 as -0.0. That can only flip the sign of a zero
    # norm or error, which cannot show: abs_tol + rel_tol * -0.0 is abs_tol,
    # and a zero err only meets comparisons.
    while True:
        t, x, y, z, k1x, k1y, k1z, h, norm_old, err_prev, fac_cap, steps = state
        next_index = kept
        next_sample = grid_list[kept]
        fault = replay = None
        while t < t_end:
            steps += 1
            if steps > max_steps:
                fault = "step limit exceeded"
                break
            if h < h_min:
                fault = "step size underflow"
                break
            if t + 1.01 * h >= t_end:
                h = t_end - t

            # each stage writes out rhs_closure's operations in its order, so
            # every slope has the bits that f would return
            u = x + h * (A21 * k1x)
            v = y + h * (A21 * k1y)
            w = z + h * (A21 * k1z)
            s = 1.0 / (1.0 + fb * w)
            k2x = ((a1x2 * s - 1.0) * p1 - d1) * u
            k2y = ((a2x2 * s - 1.0) * p2 - d2) * v + 2.0 * (1.0 - a1 * s) * p1 * u
            k2z = 2.0 * (1.0 - a2 * s) * p2 * v - d3 * w
            u = x + h * (A31 * k1x + A32 * k2x)
            v = y + h * (A31 * k1y + A32 * k2y)
            w = z + h * (A31 * k1z + A32 * k2z)
            s = 1.0 / (1.0 + fb * w)
            k3x = ((a1x2 * s - 1.0) * p1 - d1) * u
            k3y = ((a2x2 * s - 1.0) * p2 - d2) * v + 2.0 * (1.0 - a1 * s) * p1 * u
            k3z = 2.0 * (1.0 - a2 * s) * p2 * v - d3 * w
            u = x + h * (A41 * k1x + A42 * k2x + A43 * k3x)
            v = y + h * (A41 * k1y + A42 * k2y + A43 * k3y)
            w = z + h * (A41 * k1z + A42 * k2z + A43 * k3z)
            s = 1.0 / (1.0 + fb * w)
            k4x = ((a1x2 * s - 1.0) * p1 - d1) * u
            k4y = ((a2x2 * s - 1.0) * p2 - d2) * v + 2.0 * (1.0 - a1 * s) * p1 * u
            k4z = 2.0 * (1.0 - a2 * s) * p2 * v - d3 * w
            u = x + h * (A51 * k1x + A52 * k2x + A53 * k3x + A54 * k4x)
            v = y + h * (A51 * k1y + A52 * k2y + A53 * k3y + A54 * k4y)
            w = z + h * (A51 * k1z + A52 * k2z + A53 * k3z + A54 * k4z)
            s = 1.0 / (1.0 + fb * w)
            k5x = ((a1x2 * s - 1.0) * p1 - d1) * u
            k5y = ((a2x2 * s - 1.0) * p2 - d2) * v + 2.0 * (1.0 - a1 * s) * p1 * u
            k5z = 2.0 * (1.0 - a2 * s) * p2 * v - d3 * w
            u = x + h * (A61 * k1x + A62 * k2x + A63 * k3x + A64 * k4x + A65 * k5x)
            v = y + h * (A61 * k1y + A62 * k2y + A63 * k3y + A64 * k4y + A65 * k5y)
            w = z + h * (A61 * k1z + A62 * k2z + A63 * k3z + A64 * k4z + A65 * k5z)
            s = 1.0 / (1.0 + fb * w)
            k6x = ((a1x2 * s - 1.0) * p1 - d1) * u
            k6y = ((a2x2 * s - 1.0) * p2 - d2) * v + 2.0 * (1.0 - a1 * s) * p1 * u
            k6z = 2.0 * (1.0 - a2 * s) * p2 * v - d3 * w
            xn = x + h * (B1 * k1x + B3 * k3x + B4 * k4x + B5 * k5x + B6 * k6x)
            yn = y + h * (B1 * k1y + B3 * k3y + B4 * k4y + B5 * k5y + B6 * k6y)
            zn = z + h * (B1 * k1z + B3 * k3z + B4 * k4z + B5 * k5z + B6 * k6z)
            s = 1.0 / (1.0 + fb * zn)
            k7x = ((a1x2 * s - 1.0) * p1 - d1) * xn
            k7y = ((a2x2 * s - 1.0) * p2 - d2) * yn + 2.0 * (1.0 - a1 * s) * p1 * xn
            k7z = 2.0 * (1.0 - a2 * s) * p2 * yn - d3 * zn

            ex = h * (E1 * k1x + E3 * k3x + E4 * k4x + E5 * k5x + E6 * k6x + E7 * k7x)
            ey = h * (E1 * k1y + E3 * k3y + E4 * k4y + E5 * k5y + E6 * k6y + E7 * k7y)
            ez = h * (E1 * k1z + E3 * k3z + E4 * k4z + E5 * k5z + E6 * k6z + E7 * k7z)
            norm_new = -xn if xn < 0.0 else xn
            a = -yn if yn < 0.0 else yn
            norm_new = a if a > norm_new else norm_new
            a = -zn if zn < 0.0 else zn
            norm_new = a if a > norm_new else norm_new
            err = -ex if ex < 0.0 else ex
            a = -ey if ey < 0.0 else ey
            err = a if a > err else err
            a = -ez if ez < 0.0 else ez
            err = a if a > err else err
            err /= abs_tol + rel_tol * (norm_new if norm_new > norm_old else norm_old)

            # err is NaN, +inf or >= 0 here, so this is `not math.isfinite(err)`
            if not err < inf:
                h *= 0.1
                fac_cap = 1.0
                continue
            if err > 1.0:
                factor = safety * err ** (-0.2)
                h *= factor if factor > fac_min else fac_min
                fac_cap = 1.0
                continue

            # a dip past the clamp band is treated as an overlong step, not an
            # error: the octant is invariant for the exact flow, so shrinking h
            # shrinks the undershoot. Only step underflow turns it fatal.
            low = yn if yn < xn else xn
            low = zn if zn < low else low
            if low < -band:
                h *= 0.5
                fac_cap = 1.0
                continue
            t_new = t + h

            if next_sample <= t_new:
                # most sampling steps own one sample; the grid is closed by
                # inf, so grid_list[end] exists
                end = next_index + 1
                if grid_list[end] <= t_new:
                    end = bisect_right(grid_list, t_new, end)
                if not in_step and low < abs_tol:
                    kept, replay = _flush(records, grid, rows, kept, band)
                    if replay is not None:
                        break
                    in_step = True
                if in_step:
                    # _flush's operations for one step, in the same order
                    qx0, qx1, qx2, qx3 = _dense_coeffs(k1x, k3x, k4x, k5x, k6x, k7x)
                    qy0, qy1, qy2, qy3 = _dense_coeffs(k1y, k3y, k4y, k5y, k6y, k7y)
                    qz0, qz1, qz2, qz3 = _dense_coeffs(k1z, k3z, k4z, k5z, k6z, k7z)
                    i = kept
                    while i < end:
                        theta = (grid_list[i] - t) / h
                        sx = x + h * (theta * (qx0 + theta * (qx1 + theta * (qx2 + theta * qx3))))
                        sy = y + h * (theta * (qy0 + theta * (qy1 + theta * (qy2 + theta * qy3))))
                        sz = z + h * (theta * (qz0 + theta * (qz1 + theta * (qz2 + theta * qz3))))
                        a = sy if sy < sx else sx
                        if (sz if sz < a else a) < -band:
                            break
                        # rows[1 + the sample's grid index], through flat
                        i += 1
                        flat[3 * i] = 0.0 if 0.0 > sx else sx
                        flat[3 * i + 1] = 0.0 if 0.0 > sy else sy
                        flat[3 * i + 2] = 0.0 if 0.0 > sz else sz
                    if i < end:
                        # as on a dip found in a block (see below)
                        h *= 0.5
                        fac_cap = 1.0
                        continue
                    kept = end
                else:
                    # the samples are evaluated a block at a time, and a dip
                    # among them resumes the loop from its step's record
                    records += pack(t, x, y, z, k1x, k1y, k1z, h, norm_old, err_prev, steps,
                                    k3x, k3y, k3z, k4x, k4y, k4z, k5x, k5y, k5z,
                                    k6x, k6y, k6z, k7x, k7y, k7z, end - next_index)
                    if len(records) >= limit:
                        kept, replay = _flush(records, grid, rows, kept, band)
                        if replay is not None:
                            break
                next_index = end
                next_sample = grid_list[end]

            if low < 0.0:
                xn = 0.0 if 0.0 > xn else xn
                yn = 0.0 if 0.0 > yn else yn
                zn = 0.0 if 0.0 > zn else zn
                k7x, k7y, k7z = f(xn, yn, zn)
                # the clamped components are >= 0 or NaN, so each is its own abs
                norm_new = yn if yn > xn else xn
                norm_new = zn if zn > norm_new else norm_new
            x, y, z = xn, yn, zn
            norm_old = norm_new
            k1x, k1y, k1z = k7x, k7y, k7z
            t = t_new

            if err > 0.0:
                factor = safety * err ** neg_alpha * err_prev ** pi_beta
                factor = factor if factor > fac_min else fac_min
            else:
                factor = fac_cap  # 1 or 10, never below _FAC_MIN
            h *= factor if factor < fac_cap else fac_cap
            h = max_step if max_step < h else h
            err_prev = 1e-4 if 1e-4 > err else err
            fac_cap = fac_max

        if replay is None:
            kept, replay = _flush(records, grid, rows, kept, band)
        if replay is None:
            if fault is not None:
                times = np.concatenate(((t0,), grid[:kept]))
                raise IntegrationError(fault, t, (x, y, z), Trajectory(times, rows[:kept + 1].copy()))
            break
        # a dense-output dip: the scalar rejection would have gone on from
        # the dipping step's loop top
        state = replay
        in_step = True

    rows[-1] = (x, y, z)
    return np.concatenate(((t0,), grid, (t_end,))), rows


def _flush(records, grid, rows, kept, band):
    """Evaluate the samples of a block of step records, and clear the block.

    The records' samples are grid[kept:]; each is written, clamped, to
    rows[1 + its grid index]. Returns the new count of kept samples and
    None, or, if a sample dips past the clamp band, the count up to the
    first dipping record and the state to resume from: that record's loop
    top with h halved and fac_cap 1, as the step loop rejects a step.
    """
    if not records:
        return kept, None
    # one row per record field and one column per record, each row contiguous
    # the copy ends the view of records, which can then be cleared
    block = np.frombuffer(records).reshape(-1, _RECORD.size // 8).T.copy()
    records.clear()
    counts = block[26].astype(np.intp)
    owner = np.repeat(np.arange(counts.size), counts)
    end = kept + owner.size
    h = block[7, owner]
    # each field triple is a component triple (x, y, z), so one pass does
    # all three; Python float arithmetic raises no warning on overflow
    with np.errstate(all="ignore"):
        theta = (grid[kept:end] - block[0, owner]) / h
        q0, q1, q2, q3 = (q[:, owner] for q in _dense_coeffs(
            block[4:7], block[11:14], block[14:17], block[17:20], block[20:23], block[23:26]))
        values = block[1:4, owner] + h * (theta * (q0 + theta * (q1 + theta * (q2 + theta * q3))))
    sx, sy, sz = values
    # the dip test min(sx, sy, sz) < -band and the clamp max(0.0, s) keep
    # the step loop's operand order, so NaN and -0.0 pass as they do there
    low = np.where(sy < sx, sy, sx)
    dips = np.flatnonzero(np.where(sz < low, sz, low) < -band)
    replay = None
    if dips.size:
        first = owner[dips[0]]
        end = kept + int(counts[:first].sum())
        r = block[:, first].tolist()
        replay = (*r[:7], r[7] * 0.5, r[8], r[9], 1.0, int(r[10]))
    values = values[:, :end - kept]
    rows[1 + kept:1 + end] = np.where(0.0 > values, 0.0, values).T
    return end, replay


def _dense_coeffs(k1, k3, k4, k5, k6, k7):
    # q_j = sum_s k_s * _P[s][j], written out without its zero terms. The
    # rest are added in table order after sum()'s start value 0.0 (which
    # turns a leading -0.0 into +0.0), so for finite slopes every bit
    # matches the table sum.
    return (
        0.0 + k1,
        0.0 + k1 * _P11 + k3 * _P31 + k4 * _P41 + k5 * _P51 + k6 * _P61 + k7 * _P71,
        0.0 + k1 * _P12 + k3 * _P32 + k4 * _P42 + k5 * _P52 + k6 * _P62 + k7 * _P72,
        0.0 + k1 * _P13 + k3 * _P33 + k4 * _P43 + k5 * _P53 + k6 * _P63 + k7 * _P73,
    )


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
