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
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .analysis import AttractorVerdict, classify, default_horizon
from .model import REFERENCE_PARAMETERS, CellState, ModelParameters, _real, e2_conditions, steady_state_E2
from .stability import CLASS_NAMES, NONEXISTENT, _extended_coeffs, hurwitz_codes, stability_report

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
# rows per block of the sweep CSV. On the benchmark's 60 x 60 x 60 grid a
# block is about 176 KB of text, so about six fit in a lane's 1 MiB pipe
# and a helper runs that far ahead without waiting; the calling process
# holds a quarter of the strings that an 8192-row block needs
_CSV_BLOCK = 2048
_MAX_GRID = 20_000_000
_SUMMARY_POINTS = 1000


def _count(name: str, value) -> int:
    """value as an int (a bool is not one); anything else is a ValueError naming the field."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if not isinstance(value, bool):
        _real(name, value)  # names a non-number or a non-finite number as such
    raise ValueError(f"{name} must be an int, got {value!r}")


def _plausible(name: str) -> Tuple[float, float]:
    """The plausible interval of a sweep axis; any other name is a ValueError."""
    if name not in PLAUSIBLE_INTERVALS:
        if name == "k":
            raise ValueError("stability does not depend on k; it is not a sweep axis")
        raise ValueError(f"unknown sweep parameter {name!r}")
    return PLAUSIBLE_INTERVALS[name]


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
        lo, hi = _plausible(self.name)
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
    lo, hi = _plausible(name)
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
    """Per-point margins and class codes in C grid order, plus aggregates.

    Point i sits at np.unravel_index(i, spec.shape) on the axis grids
    (`AxisSpec.grid`; last axis fastest), and its class is
    CLASS_NAMES[class_codes[i]]. The code is 3 ('nonexistent') exactly
    where the positive state does not exist, and hurwitz holds NaN there
    and is finite elsewhere (`run_sweep` refuses a margin that overflows).
    unstable_points holds the coordinates of the points with code 1, one
    row each in grid order. Content and ordering are deterministic for a
    given spec.
    """

    spec: SweepSpec
    hurwitz: np.ndarray
    class_codes: np.ndarray
    counts: Dict[str, int]
    unstable_points: np.ndarray
    hopf_pair_count: int

    @property
    def n_points(self) -> int:
        return int(self.class_codes.size)


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

    Points are evaluated in fixed blocks of `_CHUNK`; each block's class
    codes, NaN-masked margins, class tally and unstable points go straight
    into the result, and the Hopf pairs are counted one band of about a
    block at a time. So the result holds 9 bytes per point (the margin and
    the class code) plus the unstable points, and the peak is that plus one
    block's temporaries. Each point's values depend only on its own
    coordinates, so the result does not depend on the block size. A margin
    that overflows where the positive state exists raises ValueError.
    """
    shape = spec.shape
    names = spec.names
    grids = tuple(axis.grid() for axis in spec.varied)
    fixed = {
        name: getattr(spec.fixed, name) for name in PLAUSIBLE_INTERVALS
    }
    total = int(np.prod(shape))

    hurwitz = np.empty(total, dtype=float)
    codes = np.empty(total, dtype=np.int8)
    tally = np.zeros(len(CLASS_NAMES), dtype=np.int64)
    unstable = []
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        multi = np.unravel_index(np.arange(start, stop), shape)
        cols = dict(fixed)
        for pos, name in enumerate(names):
            cols[name] = grids[pos][multi[pos]]
        ok, h, prod = _eval_columns(cols)
        overflow = np.flatnonzero(ok & ~np.isfinite(h))
        if overflow.size:
            at = ", ".join(f"{name}={float(cols[name][overflow[0]])!r}" for name in names)
            raise ValueError(f"the Hurwitz margin overflows where the positive state exists, at {at}")
        # conditions not touched by the varied axes come back as scalars,
        # which np.where broadcasts
        hurwitz[start:stop] = np.where(ok, h, np.nan)
        block = codes[start:stop]
        block[:] = np.where(ok, hurwitz_codes(h, prod), 3)
        tally += np.bincount(block, minlength=len(CLASS_NAMES))
        picked = block == 1
        unstable.append(np.column_stack([cols[name][picked] for name in names]))

    return SweepResult(
        spec=spec,
        hurwitz=hurwitz,
        class_codes=codes,
        counts=dict(zip(CLASS_NAMES, tally.tolist())),
        unstable_points=np.concatenate(unstable),
        hopf_pair_count=_hopf_pairs(hurwitz, shape),
    )


def _hopf_pairs(hurwitz, shape) -> int:
    """Adjacent pairs, along every axis, whose margins a and b give a * b < 0.0.

    The margins are NaN exactly where E2 does not exist, and a product with
    a NaN factor is never < 0, so no existence mask is needed; a product
    that underflows to -0.0 does not count either. Each product covers at
    most `_CHUNK` pairs: a band of whole rows (the slices at fixed indices
    of the earlier axes) while a row is short, pieces of one row once it
    is longer.
    """
    pairs = 0
    for axis in range(len(shape)):
        inner = math.prod(shape[axis + 1:])
        # one row per index of the axes before this one; along this axis,
        # neighbours sit inner apart within a row
        rows = hurwitz.reshape(math.prod(shape[:axis]), -1)
        first, second = rows[:, :-inner], rows[:, inner:]
        run = first.shape[1]
        band, width = max(1, _CHUNK // run), min(run, _CHUNK)
        for row in range(0, rows.shape[0], band):
            for lo in range(0, run, width):
                a = first[row:row + band, lo:lo + width]
                b = second[row:row + band, lo:lo + width]
                pairs += int(np.count_nonzero(a * b < 0.0))
    return pairs


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
            # room for several CSV blocks, so that a helper goes on to its
            # next items instead of waiting until the caller reads this one
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
    same sweep produce byte-identical files. The coordinates are the spec's
    axis grids (`AxisSpec.grid`). Each block of `_CSV_BLOCK` rows is
    formatted by one `%` call, in one of the lanes (`_lanes`), and written
    by one `fh.write` in this process, in order, so memory stays bounded by
    the block size rather than the grid size.
    """
    fh.write(",".join(result.spec.names) + ",e2_exists,hurwitz,class\n")
    grids = tuple(axis.grid() for axis in result.spec.varied)
    shape, total, chunk = result.spec.shape, result.n_points, _CSV_BLOCK
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

    The bounds are each axis's min and max over the unstable points ({}
    when there is none). At most `_SUMMARY_POINTS` (1000) unstable points
    are listed.
    """
    pts = result.unstable_points
    bounds = {}
    if pts.size:
        lows, highs = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
        bounds = {name: [lo, hi] for name, lo, hi in zip(result.spec.names, lows, highs)}
    return {
        "axes": [
            {"name": a.name, "low": a.low, "high": a.high, "count": a.count}
            for a in result.spec.varied
        ],
        "total_points": result.n_points,
        "counts": dict(result.counts),
        "hopf_adjacent_pairs": result.hopf_pair_count,
        "unstable": {
            "count": int(pts.shape[0]),
            "bounds": bounds,
            "points": pts[:_SUMMARY_POINTS].tolist(),
            "points_truncated": bool(pts.shape[0] > _SUMMARY_POINTS),
        },
    }


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
    verdict = classify(params, start, horizon)
    if verdict.kind == "undecided":
        # one retry from the same start, whose verdict stands. Set 6 drifts
        # off its equilibrium slowly: from its start it is still undecided
        # over 2 and 4 times its horizon, and 8 times is the smallest
        # doubling at which it decides
        verdict = classify(params, start, 8.0 * horizon)
    return verdict


def check_constellations(run_classify: bool = True) -> Tuple[ConstellationReport, ...]:
    """Evaluate the reference set and the nine example sets.

    For each: does the positive state exist, its Routh-Hurwitz margin and
    classification, and (unless run_classify is False) the long-run
    verdict of `classify` when started from a 25% overshoot of the
    positive state over `default_horizon`. A set left undecided there is
    classified once more from the same start over 8 times that horizon,
    and that verdict stands, whatever it is.
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

