"""Grid exploration of the biologically plausible parameter box.

Every grid point gets the same treatment: existence of the positive
steady state by the closed-form positivity conditions, then the sign of
the Routh-Hurwitz margin from the closed-form characteristic
coefficients. Oscillatory (Hopf) regions show up where the margin
changes sign between adjacent points that both have an existing positive
state. Evaluation is vectorized over fixed-size chunks; every point is
computed from its own coordinates alone, so results are bit-identical
however the grid is chunked.

Stability does not depend on the feedback strength k, so k is not a
sweepable axis; it only scales the steady-state cell counts.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .analysis import AttractorVerdict, classify, default_horizon
from .integrator import IntegrationConfig, integrate
from .model import CellState, ModelParameters, e2_conditions, steady_state_E2
from .stability import (
    CLASS_NAMES,
    _extended_coeffs,
    char_poly_E2,
    hurwitz_classify,
    hurwitz_codes,
    hurwitz_value,
)

__all__ = [
    "AxisSpec",
    "SweepSpec",
    "SweepResult",
    "ConstellationReport",
    "REFERENCE_PARAMETERS",
    "PLAUSIBLE_INTERVALS",
    "CONSTELLATIONS",
    "CONSTELLATION_DIRECTIONS",
    "axis_for",
    "run_sweep",
    "write_sweep_csv",
    "sweep_summary",
    "check_constellations",
    "bifurcation_bracket",
]

# reference operating point of the plausible box (healthy granulopoiesis)
REFERENCE_PARAMETERS = ModelParameters(
    a1=0.85, a2=0.841, p1=0.1, p2=0.4, d3=2.7, k=1.75e-9, d1=0.0, d2=0.0
)

# open intervals considered biologically plausible, per-day rates
PLAUSIBLE_INTERVALS: Dict[str, Tuple[float, float]] = {
    "a1": (0.5, 1.0),
    "a2": (0.0, 1.0),
    "p1": (0.0, 1.0),
    "p2": (0.0, 1.0),
    "d1": (0.0, 3.0),
    "d2": (0.0, 3.0),
    "d3": (0.1, 3.0),
}

# example parameter sets (overrides on the reference values) for which the
# positive state is reported unstable, one per distinct sign pattern
CONSTELLATIONS: Dict[int, Dict[str, float]] = {
    1: {"p1": 0.7171, "a2": 0.32, "d3": 0.132},
    2: {"p1": 0.9697, "a1": 0.99, "d3": 0.132},
    3: {"p1": 0.7778, "a2": 0.99, "d2": 2.6644},
    4: {"p1": 0.8687, "p2": 0.0201, "d2": 0.2541},
    5: {"p1": 0.707, "d2": 0.2541, "d3": 0.132},
    6: {"p2": 0.01, "a2": 0.99, "d2": 0.5287},
    7: {"p2": 0.01, "d2": 0.0405, "d3": 0.132},
    8: {"a1": 0.95, "d1": 0.0405, "d2": 2.7559},
    9: {"a2": 0.95, "d1": 0.0405, "d2": 2.5423},
}

# direction of each override relative to the reference value (+1 up, -1 down)
CONSTELLATION_DIRECTIONS: Dict[int, Dict[str, int]] = {
    1: {"p1": +1, "a2": -1, "d3": -1},
    2: {"a1": +1, "p1": +1, "d3": -1},
    3: {"p1": +1, "a2": +1, "d2": +1},
    4: {"p1": +1, "p2": -1, "d2": +1},
    5: {"p1": +1, "d2": +1, "d3": -1},
    6: {"a2": +1, "p2": -1, "d2": +1},
    7: {"p2": -1, "d2": +1, "d3": -1},
    8: {"a1": +1, "d1": +1, "d2": +1},
    9: {"d1": +1, "a2": +1, "d2": +1},
}

_CHUNK = 8192
_MAX_GRID = 20_000_000


@dataclass(frozen=True)
class AxisSpec:
    """One varied parameter: an open interval sampled at `count` points.

    Endpoints are treated as open and nudged inward by `nudge` times the
    interval length, so the grid never sits exactly on a boundary where
    the model degenerates.
    """

    name: str
    low: float
    high: float
    count: int = 100
    nudge: float = 1e-4

    def __post_init__(self):
        if self.name not in PLAUSIBLE_INTERVALS:
            if self.name == "k":
                raise ValueError("stability does not depend on k; it is not a sweep axis")
            raise ValueError(f"unknown sweep parameter {self.name!r}")
        for label in ("low", "high", "count", "nudge"):
            value = getattr(self, label)
            if not math.isfinite(value):
                raise ValueError(f"{label} of the {self.name} axis must be finite, got {value}")
        if not self.low < self.high:
            raise ValueError(f"empty interval for {self.name}: ({self.low}, {self.high})")
        if self.count < 2:
            raise ValueError(f"need at least 2 grid points, got {self.count}")
        if not 0.0 <= self.nudge < 0.5:
            raise ValueError(f"nudge must lie in [0, 0.5), got {self.nudge}")
        lo, hi = PLAUSIBLE_INTERVALS[self.name]
        if self.low < lo or self.high > hi:
            warnings.warn(
                f"interval ({self.low}, {self.high}) for {self.name} leaves the "
                f"plausible range ({lo}, {hi})",
                UserWarning,
                stacklevel=2,
            )

    def grid(self) -> np.ndarray:
        pad = self.nudge * (self.high - self.low)
        return np.linspace(self.low + pad, self.high - pad, self.count)


def axis_for(name: str, count: int = 100) -> AxisSpec:
    """Axis covering the full plausible interval of a parameter."""
    lo, hi = PLAUSIBLE_INTERVALS[name]
    return AxisSpec(name=name, low=lo, high=hi, count=count)


@dataclass(frozen=True)
class SweepSpec:
    """Varied axes (1 to 7, unique names) around a fixed parameter set."""

    varied: Tuple[AxisSpec, ...]
    fixed: ModelParameters = REFERENCE_PARAMETERS

    def __post_init__(self):
        object.__setattr__(self, "varied", tuple(self.varied))
        if not 1 <= len(self.varied) <= len(PLAUSIBLE_INTERVALS):
            raise ValueError(f"need 1 to 7 varied axes, got {len(self.varied)}")
        names = [axis.name for axis in self.varied]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate sweep axes in {names}")
        total = math.prod(axis.count for axis in self.varied)
        if total > _MAX_GRID:
            raise ValueError(f"grid of {total} points exceeds the {_MAX_GRID} cap")

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(axis.count for axis in self.varied)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(axis.name for axis in self.varied)


@dataclass
class SweepResult:
    """Per-point flags in C grid order (last axis fastest) plus aggregates.

    hurwitz holds NaN where the positive state does not exist. Content and
    ordering are deterministic for a given spec.
    """

    spec: SweepSpec
    exists: np.ndarray
    hurwitz: np.ndarray
    class_codes: np.ndarray
    counts: Dict[str, int]
    unstable_points: np.ndarray
    unstable_bounds: Optional[Dict[str, Tuple[float, float]]]
    hopf_pair_count: int
    _grids: Tuple[np.ndarray, ...] = field(repr=False, default=())

    @property
    def n_points(self) -> int:
        return int(self.exists.size)

    def point_at(self, index: int) -> Tuple[float, ...]:
        multi = np.unravel_index(index, self.spec.shape)
        return tuple(float(g[i]) for g, i in zip(self._grids, multi))

    def classification_at(self, index: int) -> str:
        return CLASS_NAMES[self.class_codes[index]]

    def iter_rows(self) -> Iterator[Tuple[Tuple[float, ...], bool, float, str]]:
        for i in range(self.n_points):
            yield (
                self.point_at(i),
                bool(self.exists[i]),
                float(self.hurwitz[i]),
                self.classification_at(i),
            )


def _eval_columns(cols):
    exists = e2_conditions(
        cols["a1"], cols["a2"], cols["p1"], cols["p2"], cols["d1"], cols["d2"]
    )[3]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b1, b2, b3 = _extended_coeffs(**cols)
        prod = b1 * b2
    return exists, prod - b3, prod


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate existence and stability over the whole grid.

    Points are evaluated in fixed blocks of `_CHUNK`, which bounds the
    temporaries at the grid-size cap; each point's values depend only on
    its own coordinates, so the result does not depend on the block size.
    """
    shape = spec.shape
    names = spec.names
    grids = tuple(axis.grid() for axis in spec.varied)
    fixed = {
        name: getattr(spec.fixed, name) for name in PLAUSIBLE_INTERVALS
    }
    total = int(np.prod(shape))

    exists = np.empty(total, dtype=bool)
    h = np.empty(total, dtype=float)
    prod = np.empty(total, dtype=float)
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        multi = np.unravel_index(np.arange(start, stop), shape)
        cols = dict(fixed)
        for pos, name in enumerate(names):
            cols[name] = grids[pos][multi[pos]]
        # conditions not touched by the varied axes come back as scalars,
        # which the slice assignment broadcasts
        exists[start:stop], h[start:stop], prod[start:stop] = _eval_columns(cols)

    codes = np.where(exists, hurwitz_codes(h, prod), 3).astype(np.int8)
    hurwitz = np.where(exists, h, np.nan)
    counts = {
        name: int(np.count_nonzero(codes == code))
        for code, name in enumerate(CLASS_NAMES)
    }

    unstable_idx = np.nonzero(codes == 1)[0]
    multi = np.unravel_index(unstable_idx, shape)
    unstable_points = np.column_stack(
        [grids[pos][multi[pos]] for pos in range(len(names))]
    ) if unstable_idx.size else np.empty((0, len(names)))
    bounds = None
    if unstable_idx.size:
        bounds = {
            name: (float(unstable_points[:, pos].min()), float(unstable_points[:, pos].max()))
            for pos, name in enumerate(names)
        }

    grid_h = hurwitz.reshape(shape)
    grid_exists = exists.reshape(shape)
    pairs = 0
    for axis in range(len(shape)):
        lead = [slice(None)] * len(shape)
        trail = [slice(None)] * len(shape)
        lead[axis] = slice(None, -1)
        trail[axis] = slice(1, None)
        ha, hb = grid_h[tuple(lead)], grid_h[tuple(trail)]
        ok = grid_exists[tuple(lead)] & grid_exists[tuple(trail)]
        pairs += int(np.count_nonzero(ok & (ha * hb < 0.0)))

    return SweepResult(
        spec=spec,
        exists=exists,
        hurwitz=hurwitz,
        class_codes=codes,
        counts=counts,
        unstable_points=unstable_points,
        unstable_bounds=bounds,
        hopf_pair_count=pairs,
        _grids=grids,
    )


def write_sweep_csv(result: SweepResult, fh) -> None:
    """Stream the per-point rows as CSV: coordinates, existence, margin, class.

    Floats use 17 significant digits and '.' decimals so two runs of the
    same sweep produce byte-identical files. Rows are written in blocks of
    `_CHUNK` rows, one `fh.write` per block, so memory stays bounded by the
    block size rather than the grid size.
    """
    fh.write(",".join(result.spec.names) + ",e2_exists,hurwitz,class\n")
    # each axis value is formatted once; the product runs the last axis
    # fastest, the same C order as the flat result arrays
    axes = [["%.17g" % value for value in grid.tolist()] for grid in result._grids]
    coords = map(",".join, itertools.product(*axes))
    labels = [",%s\n" % name for name in CLASS_NAMES]
    for start in range(0, result.n_points, _CHUNK):
        stop = start + _CHUNK
        rows = zip(
            itertools.islice(coords, _CHUNK),
            result.exists[start:stop].tolist(),
            result.hurwitz[start:stop].tolist(),
            result.class_codes[start:stop].tolist(),
        )
        fh.write("".join("%s,%d,%.17g%s" % (c, e, h, labels[k]) for c, e, h, k in rows))


def sweep_summary(result: SweepResult, max_points: int = 1000) -> dict:
    """JSON-ready aggregate view: counts, unstable bounds, sample points."""
    pts = result.unstable_points
    summary = {
        "axes": [
            {"name": a.name, "low": a.low, "high": a.high, "count": a.count}
            for a in result.spec.varied
        ],
        "total_points": result.n_points,
        "counts": dict(result.counts),
        "hopf_adjacent_pairs": result.hopf_pair_count,
        "unstable": {
            "count": int(pts.shape[0]),
            "bounds": {
                name: [lo, hi] for name, (lo, hi) in (result.unstable_bounds or {}).items()
            },
            "points": [[float(v) for v in row] for row in pts[:max_points]],
            "points_truncated": bool(pts.shape[0] > max_points),
        },
    }
    return summary


@dataclass(frozen=True)
class ConstellationReport:
    """Stability and long-run verdict for one example parameter set.

    index 0 is the unmodified reference set; 1 through 9 are the example
    override sets. verdict is None when classification was skipped.
    """

    index: int
    overrides: Dict[str, float]
    params: ModelParameters
    e2_exists: bool
    hurwitz: Optional[float]
    classification: str
    verdict: Optional[AttractorVerdict]


def _classify_from_equilibrium(params, horizon=None) -> Optional[AttractorVerdict]:
    eq = steady_state_E2(params)
    if eq is None:
        return None
    state = eq.state
    start = CellState(1.25 * state.u1, 1.25 * state.u2, 1.25 * state.u3)
    if horizon is None:
        horizon = default_horizon(params)
    verdict = classify(params, start, horizon)
    attempts = 0
    # weakly unstable sets drift off the equilibrium slowly; restart from
    # where the previous run ended rather than integrating one long arc
    while verdict.kind == "undecided" and attempts < 3:
        attempts += 1
        horizon *= 2.0
        traj_start = _last_state(params, start, horizon / 4.0)
        start = traj_start
        verdict = classify(params, start, horizon)
    return verdict


def _last_state(params, start, t_end) -> CellState:
    traj = integrate(params, start, IntegrationConfig(t_end=t_end, output_stride=t_end))
    return traj.final


def check_constellations(run_classify: bool = True) -> Tuple[ConstellationReport, ...]:
    """Evaluate the reference set and the nine example sets.

    For each: does the positive state exist, its Routh-Hurwitz margin and
    classification, and (unless run_classify is False) the long-run
    verdict when started from a 25% overshoot of the positive state.
    """
    reports = []
    for index in range(0, 10):
        overrides = {} if index == 0 else dict(CONSTELLATIONS[index])
        params = REFERENCE_PARAMETERS.with_(**overrides)
        eq = steady_state_E2(params)
        if eq is None:
            reports.append(
                ConstellationReport(index, overrides, params, False, None, "nonexistent", None)
            )
            continue
        coeffs = char_poly_E2(params)
        h = hurwitz_value(coeffs)
        classification = hurwitz_classify(coeffs)
        verdict = _classify_from_equilibrium(params) if run_classify else None
        reports.append(
            ConstellationReport(index, overrides, params, True, h, classification, verdict)
        )
    return tuple(reports)


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
        return hurwitz_value(char_poly_E2(candidate))

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
