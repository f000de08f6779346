"""Grid exploration of the biologically plausible parameter box.

Every grid point gets the same treatment: existence of the positive
steady state by the closed-form positivity conditions, then the sign of
the Routh-Hurwitz margin from the closed-form characteristic
coefficients. Oscillatory (Hopf) regions show up where the margin
changes sign between adjacent points that both have an existing positive
state. Evaluation is vectorized over fixed-size chunks; every point is
computed from its own coordinates alone, so results are bit-identical
however the grid is chunked and however the work is split between
processes.

The two long jobs, the CSV text of a sweep and the constellation audit's
classifications, run in lanes (`_lanes`): the calling process and up to
one forked helper per further usable CPU take the next item in turn and
the results come back in order.

Stability does not depend on the feedback strength k, so k is not a
sweepable axis; it only scales the steady-state cell counts.
"""

from __future__ import annotations

import contextlib
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .analysis import AttractorVerdict, _classify, default_horizon
from .integrator import IntegrationConfig, integrate
from .model import REFERENCE_PARAMETERS, CellState, ModelParameters, _real, e2_conditions, steady_state_E2
from .stability import (
    CLASS_NAMES,
    NONEXISTENT,
    _extended_coeffs,
    char_poly_E2,
    hurwitz_codes,
    hurwitz_value,
    stability_report,
)

__all__ = [
    "AxisSpec",
    "SweepSpec",
    "SweepResult",
    "ConstellationReport",
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
_SUMMARY_POINTS = 1000


def _count(name: str, value) -> int:
    """value as an int (a bool is not one); anything else is a ValueError naming the field."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if not isinstance(value, bool):
        _real(name, value)  # names a non-number or a non-finite number as such
    raise ValueError(f"{name} must be an int, got {value!r}")


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
        # stored as plain floats and a plain int, so the grid and the summary
        # see no numpy scalar
        for label, rule in (("low", _real), ("high", _real), ("count", _count), ("nudge", _real)):
            value = rule(f"{label} of the {self.name} axis", getattr(self, label))
            object.__setattr__(self, label, value)
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
                stacklevel=3,  # past the generated __init__, to the AxisSpec(...) call
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

    Point i sits at np.unravel_index(i, spec.shape) on the axis grids, and
    its class is CLASS_NAMES[class_codes[i]]. hurwitz holds NaN where the
    positive state does not exist. Content and ordering are deterministic
    for a given spec.
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
    counts = dict(zip(CLASS_NAMES, np.bincount(codes, minlength=len(CLASS_NAMES)).tolist()))

    multi = np.unravel_index(np.nonzero(codes == 1)[0], shape)
    unstable_points = np.column_stack([grid[idx] for grid, idx in zip(grids, multi)])
    bounds = None
    if unstable_points.size:
        lows, highs = unstable_points.min(axis=0).tolist(), unstable_points.max(axis=0).tolist()
        bounds = {name: (low, high) for name, low, high in zip(names, lows, highs)}

    # hurwitz is NaN exactly where E2 does not exist, and a product with a
    # NaN factor is never < 0, so no existence mask is needed
    grid_h = hurwitz.reshape(shape)
    pairs = 0
    for axis in range(len(shape)):
        along = np.moveaxis(grid_h, axis, 0)
        pairs += int(np.count_nonzero(along[:-1] * along[1:] < 0.0))

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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _lanes(fn, n):
    """Yield fn(0), ..., fn(n - 1) in order, computed in up to one lane per usable CPU.

    The calling process is one lane; each other lane is a forked helper.
    Every lane claims the lowest unclaimed index from one shared counter.
    While the caller's next result has not arrived, the caller claims and
    computes the next index itself, so it blocks only once every index is
    claimed. Helpers only compute and send their values back; they write
    to no file. An index whose helper raised or died is computed by the
    caller, so the caller yields and raises exactly what the serial loop
    would. With one usable CPU, one item, no fork start method, or a
    second thread running, that serial loop runs in the caller and no
    process starts. Every helper is joined before the generator returns,
    raises or is closed.
    """
    helpers = min(_usable_cpus(), n) - 1
    if helpers > 0:
        import multiprocessing
        import threading

        # a daemonic process (a pool worker, say) may not start processes,
        # and a fork copies no thread but every lock another thread holds
        if (
            "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1
        ):
            helpers = 0
    if helpers <= 0:
        for index in range(n):
            yield fn(index)
        return

    import fcntl
    import mmap

    ctx = multiprocessing.get_context("fork")
    lock = ctx.Lock()
    # slot 0 is the next unclaimed index; slot i + 1 the lane that claimed i
    # (0 for the caller, or not yet claimed)
    shared = mmap.mmap(-1, 8 * (n + 1))
    slots = memoryview(shared).cast("q")

    def claim(lane):
        with lock:
            index = slots[0]
            if index >= n:
                return None
            slots[0] = index + 1
            slots[index + 1] = lane
        return index

    procs, readers, held = [], {}, {}
    more = True  # the caller stops claiming once one of its own items raised

    def compute(index):
        nonlocal more
        try:
            held[index] = (True, fn(index))
        except Exception as exc:
            held[index] = (False, exc)
            more = False

    try:
        for lane in range(1, helpers + 1):
            reader, writer = ctx.Pipe(duplex=False)
            # room for a whole CSV block, so that a helper goes on to its next
            # item instead of waiting until the caller reads this one
            with contextlib.suppress(AttributeError, OSError):
                fcntl.fcntl(writer.fileno(), fcntl.F_SETPIPE_SZ, 1 << 20)
            # the helper closes its copies of every read end, so that it
            # cannot block forever on a pipe that only it still reads
            inherited = [reader, *readers.values()]
            proc = ctx.Process(target=_lane, args=(fn, claim, lane, writer, inherited), daemon=True)
            try:
                proc.start()
            except OSError:  # no fork to be had: the lanes started so far do the work
                reader.close()
                break
            finally:
                # started later, a helper must not hold this write end open,
                # or the caller would never see this helper's end of file
                writer.close()
            procs.append(proc)
            readers[lane] = reader
        for index in range(n):
            while index not in held:
                lane = slots[index + 1]
                if lane == 0:  # unclaimed as far as this process has seen
                    nxt = claim(0)
                    if nxt is not None:
                        compute(nxt)
                    continue
                reader = readers.get(lane)
                if reader is None:  # its helper is gone without delivering
                    compute(index)
                    continue
                if more and not reader.poll():
                    nxt = claim(0)
                    if nxt is not None:
                        compute(nxt)
                        continue
                try:
                    held[index] = (True, reader.recv())
                except (EOFError, OSError):
                    readers.pop(lane).close()
            ok, value = held.pop(index)
            if not ok:
                raise value
            yield value
    finally:
        for reader in readers.values():
            reader.close()
        for proc in procs:
            proc.kill()  # whatever a helper still computes is not wanted
            proc.join()
        slots.release()
        shared.close()


def _lane(fn, claim, lane, writer, inherited):
    """A helper's whole life: claim, compute and send until nothing is left.

    It leaves through os._exit, so it never flushes or closes a copy of the
    caller's files and buffers; an exception ends it quietly, and the
    caller computes the index it held.
    """
    try:
        for reader in inherited:
            reader.close()
        while True:
            index = claim(lane)
            if index is None:
                break
            writer.send(fn(index))
    finally:
        os._exit(0)


def _row_coordinates(axes, grids, shape, start, stop):
    """Coordinate text of rows start .. stop - 1, in C order (last axis fastest).

    Each run of rows that shares its outer-axis values is one prefix
    followed by a slice of the last axis. `axes` holds each axis's value
    strings, or None for an axis formatted here as needed.
    """
    count = shape[-1]
    last = axes[-1]
    rows = []
    for outer in range(start // count, (stop - 1) // count + 1):
        lo = max(start - outer * count, 0)
        hi = min(stop - outer * count, count)
        tail = last[lo:hi] if last is not None else ["%.17g" % v for v in grids[-1][lo:hi].tolist()]
        parts = []
        rest = outer
        for pos in range(len(shape) - 2, -1, -1):
            rest, digit = divmod(rest, shape[pos])
            parts.append(axes[pos][digit] if axes[pos] is not None else "%.17g" % grids[pos][digit])
        if parts:
            prefix = ",".join(reversed(parts)) + ","
            rows += [prefix + text for text in tail]
        else:
            rows += tail
    return rows


def write_sweep_csv(result: SweepResult, fh) -> None:
    """Stream the per-point rows as CSV: coordinates, existence, margin, class.

    Floats use 17 significant digits and '.' decimals so two runs of the
    same sweep produce byte-identical files. Each block of `_CHUNK` rows is
    formatted by one `%` call, in one of the lanes (`_lanes`), and written
    by one `fh.write` in this process, in order, so memory stays bounded by
    the block size rather than the grid size.
    """
    fh.write(",".join(result.spec.names) + ",e2_exists,hurwitz,class\n")
    grids, shape, total, chunk = result._grids, result.spec.shape, result.n_points, _CHUNK
    # an axis of at most one block's values is formatted once; a longer one
    # block by block, so no list of strings grows with the grid
    axes = [["%.17g" % v for v in grid.tolist()] if grid.size <= chunk else None for grid in grids]
    # one row template per class code; run_sweep gives code 3 exactly where
    # E2 does not exist, so the class also fixes the e2_exists digit
    templates = [
        "%%s,%d,%%.17g,%s\n" % (name != NONEXISTENT, name) for name in CLASS_NAMES
    ]

    def block(number):
        start = number * chunk
        stop = min(start + chunk, total)
        codes = result.class_codes[start:stop].tolist()
        # coordinates go in as %s arguments, never into the format string,
        # so no text needs escaping
        args = [None] * (2 * len(codes))
        args[0::2] = _row_coordinates(axes, grids, shape, start, stop)
        args[1::2] = result.hurwitz[start:stop].tolist()
        return "".join([templates[k] for k in codes]) % tuple(args)

    with contextlib.closing(_lanes(block, -(-total // chunk))) as blocks:
        for text in blocks:
            fh.write(text)


def sweep_summary(result: SweepResult) -> dict:
    """JSON-ready aggregate view: counts, unstable bounds, sample points.

    At most `_SUMMARY_POINTS` (1000) unstable points are listed.
    """
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
            "points": [[float(v) for v in row] for row in pts[:_SUMMARY_POINTS]],
            "points_truncated": bool(pts.shape[0] > _SUMMARY_POINTS),
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


def _classify_from_equilibrium(params) -> Optional[AttractorVerdict]:
    eq = steady_state_E2(params)
    if eq is None:
        return None
    state = eq.state
    start = CellState(1.25 * state.u1, 1.25 * state.u2, 1.25 * state.u3)
    horizon = default_horizon(params)
    verdict, marked = _classify(params, start, horizon, marked=True)
    attempts = 0
    # weakly unstable sets drift off the equilibrium slowly; each restart
    # starts from the state the run just judged reached at half its horizon
    # and classifies from there over the doubled horizon. That state is the
    # end of a run from the previous start to horizon / 4 (of the doubled
    # horizon), read off the judged run; where it cannot be (marked is
    # None), that run is made afresh, with the same bits or the same error.
    while verdict.kind == "undecided" and attempts < 3:
        attempts += 1
        horizon *= 2.0
        start = marked if marked is not None else _last_state(params, start, horizon / 4.0)
        verdict, marked = _classify(params, start, horizon, marked=True)
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
    overrides = [{} if index == 0 else dict(CONSTELLATIONS[index]) for index in range(10)]
    sets = [REFERENCE_PARAMETERS.with_(**values) for values in overrides]
    verdicts = [None] * len(sets)
    if run_classify:
        verdicts = list(_lanes(lambda index: _classify_from_equilibrium(sets[index]), len(sets)))
    reports = []
    for index, (params, verdict) in enumerate(zip(sets, verdicts)):
        report = stability_report(params, "E2")
        reports.append(
            ConstellationReport(
                index, overrides[index], params, report.equilibrium is not None,
                report.hurwitz, report.classification, verdict,
            )
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
