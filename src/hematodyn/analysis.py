"""Long-run behavior of trajectories: settle, oscillate, or undecided.

The classifier integrates over a horizon, throws away the first half as
transient, and then applies two tests in order. If the trailing states sit
within a relative tolerance of one steady state, the verdict is
equilibrium. Otherwise successive maxima of the mature-cell count u3 are
located (mature counts are what clinical time series show); if the last
five inter-peak intervals and the bracketing peak heights each agree
within 2%, the verdict is limit_cycle with the mean interval as period.
Anything else stays undecided rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .integrator import IntegrationConfig, Trajectory, integrate
from .model import CellState, ModelParameters, steady_states
from .stability import hopf_point

__all__ = [
    "AttractorVerdict",
    "OscillationReport",
    "EQUILIBRIUM",
    "LIMIT_CYCLE",
    "UNDECIDED",
    "classify",
    "oscillation_report",
    "default_horizon",
]

EQUILIBRIUM = "equilibrium"
LIMIT_CYCLE = "limit_cycle"
UNDECIDED = "undecided"

# trailing peaks entering the period/amplitude estimate
_TRAILING_PEAKS = 6


@dataclass(frozen=True)
class AttractorVerdict:
    """Outcome of `classify`.

    kind is 'equilibrium' (with the steady state's label), 'limit_cycle'
    (with period in days and peak-to-trough amplitude of u3 in cells/kg),
    or 'undecided'. final_distance is the relative distance of the final
    sample to the nearest steady state, whatever the verdict.
    """

    kind: str
    label: Optional[str] = None
    period: Optional[float] = None
    amplitude_u3: Optional[float] = None
    final_distance: float = math.inf

    def __post_init__(self):
        if self.kind == LIMIT_CYCLE:
            if not (self.period and self.period > 0):
                raise ValueError("limit_cycle verdict needs a positive period")
            if not (self.amplitude_u3 and self.amplitude_u3 > 0):
                raise ValueError("limit_cycle verdict needs a positive amplitude")
        elif self.kind == EQUILIBRIUM:
            if self.label is None:
                raise ValueError("equilibrium verdict needs the steady state label")
        elif self.kind != UNDECIDED:
            raise ValueError(f"unknown verdict kind {self.kind!r}")


@dataclass(frozen=True)
class OscillationReport:
    """Refined u3 maxima/minima of a trajectory and derived estimates.

    period is the mean spacing of the trailing peaks (None with fewer than
    two peaks); amplitude is mean(trailing peaks) - mean(trailing troughs)
    (None without a full bracketed trough window).
    """

    peak_times: Tuple[float, ...]
    peak_heights: Tuple[float, ...]
    trough_times: Tuple[float, ...]
    trough_heights: Tuple[float, ...]
    period: Optional[float]
    amplitude: Optional[float]


def _refine_extremum(t0, t1, t2, v0, v1, v2, sign):
    # vertex of the parabola through three samples; spacing may be uneven.
    # sign is +1 for maxima, -1 for minima; falls back to the middle sample
    # when the curvature has the wrong sign or vanishes.
    s1 = (v1 - v0) / (t1 - t0)
    s2 = (v2 - v1) / (t2 - t1)
    curv = (s2 - s1) / (t2 - t0)
    if not math.isfinite(curv) or sign * curv >= 0.0:
        return t1, v1
    t_star = 0.5 * (t0 + t1) - s1 / (2.0 * curv)
    if not t0 <= t_star <= t2:
        return t1, v1
    v_star = v0 + s1 * (t_star - t0) + curv * (t_star - t0) * (t_star - t1)
    return t_star, v_star


def _extrema(times: np.ndarray, values: np.ndarray, sign: float):
    # interior local extrema, quadratically refined. The comparison is
    # one-sided-strict so a crest sampled symmetrically (two bitwise-equal
    # neighbors) still registers, exactly once, at the trailing sample;
    # constant stretches register never.
    inner = values[1:-1]
    if sign > 0:
        hits = np.nonzero((inner >= values[:-2]) & (inner > values[2:]))[0] + 1
    else:
        hits = np.nonzero((inner <= values[:-2]) & (inner < values[2:]))[0] + 1
    out_t, out_v = [], []
    for i in hits:
        t_star, v_star = _refine_extremum(
            times[i - 1], times[i], times[i + 1],
            values[i - 1], values[i], values[i + 1], sign,
        )
        out_t.append(float(t_star))
        out_v.append(float(v_star))
    return out_t, out_v


def oscillation_report(traj: Trajectory) -> OscillationReport:
    """Locate u3 peaks/troughs and estimate period and amplitude.

    Needs at least 3 samples. A constant trajectory has no strict local
    maxima, so both estimates come back None.
    """
    if len(traj) < 3:
        raise ValueError(f"need at least 3 samples to look for peaks, got {len(traj)}")
    u3 = traj.states[:, 2]
    peak_t, peak_v = _extrema(traj.times, u3, +1.0)
    trough_t, trough_v = _extrema(traj.times, u3, -1.0)

    period = None
    amplitude = None
    if len(peak_t) >= 2:
        tail_t = peak_t[-_TRAILING_PEAKS:]
        period = (tail_t[-1] - tail_t[0]) / (len(tail_t) - 1)
        lo, hi = tail_t[0], tail_t[-1]
        inner = [v for t, v in zip(trough_t, trough_v) if lo < t < hi]
        if inner:
            amplitude = float(np.mean(peak_v[-len(tail_t):]) - np.mean(inner))
    return OscillationReport(
        peak_times=tuple(peak_t),
        peak_heights=tuple(peak_v),
        trough_times=tuple(trough_t),
        trough_heights=tuple(trough_v),
        period=period,
        amplitude=amplitude,
    )


def default_horizon(params: ModelParameters) -> float:
    """Horizon (days) covering ~40 putative cycles.

    Uses the closed-form bifurcation frequency when the basic variant has
    one; otherwise 2000 rescaled time units converted back to days.
    """
    if params.is_basic:
        try:
            report = hopf_point(params.a1, params.a2, params.d3, params.p1)
        except ValueError:
            pass
        else:
            return 40.0 * 2.0 * math.pi / report.omega
    return 2000.0 / params.p1


def _relative_distance(state_row, reference) -> float:
    diff = state_row - reference
    return float(np.sqrt(diff @ diff) / max(float(np.sqrt(reference @ reference)), 1.0))


def classify(
    params: ModelParameters,
    initial: CellState,
    horizon: Optional[float] = None,
    *,
    transient_fraction: float = 0.5,
    equilibrium_tol: float = 1e-3,
    agreement_tol: float = 0.02,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-3,
    output_stride: Optional[float] = None,
) -> AttractorVerdict:
    """Integrate and classify the long-run behavior.

    The horizon should cover at least ~20 putative periods; the default
    from `default_horizon` does. Integration failures propagate.
    """
    if not 0.0 < transient_fraction < 1.0:
        raise ValueError(f"transient_fraction must lie in (0, 1), got {transient_fraction}")
    # NaN fails every tolerance comparison below and infinity passes every
    # one; either would yield a plausible-looking verdict
    for name, tol in (("equilibrium_tol", equilibrium_tol), ("agreement_tol", agreement_tol)):
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {tol}")
    if horizon is None:
        horizon = default_horizon(params)
    stride = output_stride if output_stride is not None else horizon / 4000.0
    config = IntegrationConfig(
        t_end=horizon, rel_tol=rel_tol, abs_tol=abs_tol, output_stride=stride
    )
    traj = integrate(params, initial, config)

    equilibria = steady_states(params)
    targets = [(eq.label, eq.state.as_array()) for eq in equilibria]
    final_row = traj.states[-1]
    final_distance = min(_relative_distance(final_row, ref) for _, ref in targets)

    # settle test on the trailing 5% of the horizon
    window = traj.times >= traj.times[-1] - 0.05 * horizon
    tail_states = traj.states[window]
    best_label = None
    best_worst = math.inf
    for label, ref in targets:
        worst = max(_relative_distance(row, ref) for row in tail_states)
        if worst < best_worst:
            best_worst = worst
            best_label = label
    if best_worst <= equilibrium_tol:
        return AttractorVerdict(
            kind=EQUILIBRIUM, label=best_label, final_distance=final_distance
        )

    keep = traj.times >= transient_fraction * horizon
    tail = Trajectory(traj.times[keep], traj.states[keep])
    report = oscillation_report(tail)
    if len(report.peak_times) >= _TRAILING_PEAKS:
        times = np.array(report.peak_times[-_TRAILING_PEAKS:])
        heights = np.array(report.peak_heights[-_TRAILING_PEAKS:])
        intervals = np.diff(times)
        mean_interval = float(np.mean(intervals))
        mean_height = float(np.mean(heights))
        intervals_ok = np.all(
            np.abs(intervals - mean_interval) <= agreement_tol * abs(mean_interval)
        )
        heights_ok = np.all(
            np.abs(heights - mean_height) <= agreement_tol * abs(mean_height)
        )
        lo, hi = float(times[0]), float(times[-1])
        troughs = [
            v for t, v in zip(report.trough_times, report.trough_heights) if lo < t < hi
        ]
        if intervals_ok and heights_ok and troughs:
            amplitude = mean_height - float(np.mean(troughs))
            if amplitude > 0.0:
                return AttractorVerdict(
                    kind=LIMIT_CYCLE,
                    period=mean_interval,
                    amplitude_u3=amplitude,
                    final_distance=final_distance,
                )
    return AttractorVerdict(kind=UNDECIDED, final_distance=final_distance)
