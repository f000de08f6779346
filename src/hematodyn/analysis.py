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

from .integrator import IntegrationConfig, Trajectory, _sample_grid, integrate
from .model import CellState, ModelParameters, _positive, _real, steady_states
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
    # each hit with its two neighbors, refined on Python floats, which
    # round as numpy scalars do
    around = hits[:, None] + np.arange(-1, 2)
    out_t, out_v = [], []
    for (t0, t1, t2), (v0, v1, v2) in zip(times[around].tolist(), values[around].tolist()):
        t_star, v_star = _refine_extremum(t0, t1, t2, v0, v1, v2, sign)
        out_t.append(t_star)
        out_v.append(v_star)
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
        period = float(np.mean(np.diff(tail_t)))
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


def _agree(values, tol: float) -> bool:
    # every value lies within tol (relative) of the mean of all of them
    values = np.asarray(values)
    mean = float(np.mean(values))
    return bool(np.all(np.abs(values - mean) <= tol * abs(mean)))


def _relative_distances(states: np.ndarray, reference: np.ndarray) -> np.ndarray:
    # |row - reference| / max(|reference|, 1) of every row in one pass. The
    # stacked matmul takes each row's diff @ diff as the same dot product
    # that diff @ diff on the row alone takes, so every distance has its
    # bits; (diff * diff).sum(1) and einsum add in another order and do not.
    diff = states - reference
    squares = (diff[:, None, :] @ diff[:, :, None]).ravel()
    return np.sqrt(squares) / max(float(np.sqrt(reference @ reference)), 1.0)


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
    """Integrate once and classify the long-run behavior; return the verdict.

    The horizon should cover at least ~20 putative periods; the default
    from `default_horizon` does. Integration failures propagate. An
    output_stride that leaves fewer than 3 samples in the kept tail or in
    the trailing 5 % of the horizon is a ValueError, raised before
    integrating.
    """
    # every setting follows the number rule before anything is integrated:
    # NaN fails every tolerance comparison below and infinity passes every
    # one, and either would yield a plausible-looking verdict
    transient_fraction = _real("transient_fraction", transient_fraction)
    if not 0.0 < transient_fraction < 1.0:
        raise ValueError(f"transient_fraction must lie in (0, 1), got {transient_fraction}")
    equilibrium_tol = _positive("equilibrium_tol", equilibrium_tol)
    agreement_tol = _positive("agreement_tol", agreement_tol)
    horizon = default_horizon(params) if horizon is None else _positive("horizon", horizon)
    stride = output_stride if output_stride is not None else horizon / 4000.0
    config = IntegrationConfig(
        t_end=horizon, rel_tol=rel_tol, abs_tol=abs_tol, output_stride=stride
    )
    # the cycle test judges the kept tail and the settle test the trailing
    # 5 % of the horizon; one or two samples show neither, so a stride too
    # coarse for either window is refused before integrating, not judged.
    # integrate samples at 0, on its interior grid and at t_end, which lies
    # in both windows.
    t_end = config.t_end
    keep_from = transient_fraction * horizon
    window_from = t_end - 0.05 * horizon
    grid = _sample_grid(config.stride, t_end)
    in_keep = 1 + int(np.count_nonzero(grid >= keep_from))
    in_window = 1 + int(np.count_nonzero(grid >= window_from))
    for part, count in ((f"the kept tail (t >= {transient_fraction} * horizon)", in_keep),
                        ("the trailing 5 % of the horizon", in_window)):
        if count < 3:
            raise ValueError(
                f"output_stride {stride} leaves {count} sample(s) in {part}; classify needs at least 3"
            )
    traj = integrate(params, initial, config)
    keep = traj.times >= keep_from
    window = traj.times >= window_from

    # settle test on the trailing 5% of the horizon, whose last sample is
    # the final one, so its last distance to each steady state gives
    # final_distance as well
    tail_states = traj.states[window]
    best_label = None
    best_worst = math.inf
    last_distances = []
    for eq in steady_states(params):
        # max over Python floats, as the row-by-row test took it
        distances = _relative_distances(tail_states, eq.state.as_array()).tolist()
        last_distances.append(distances[-1])
        worst = max(distances)
        if worst < best_worst:
            best_worst = worst
            best_label = eq.label
    final_distance = min(last_distances)
    if best_worst <= equilibrium_tol:
        return AttractorVerdict(
            kind=EQUILIBRIUM, label=best_label, final_distance=final_distance
        )

    tail = Trajectory(traj.times[keep], traj.states[keep])
    report = oscillation_report(tail)
    if (
        len(report.peak_times) >= _TRAILING_PEAKS
        and report.amplitude is not None
        and report.amplitude > 0.0
        and _agree(np.diff(report.peak_times[-_TRAILING_PEAKS:]), agreement_tol)
        and _agree(report.peak_heights[-_TRAILING_PEAKS:], agreement_tol)
    ):
        return AttractorVerdict(
            kind=LIMIT_CYCLE,
            period=report.period,
            amplitude_u3=report.amplitude,
            final_distance=final_distance,
        )
    return AttractorVerdict(kind=UNDECIDED, final_distance=final_distance)
