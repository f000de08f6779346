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
import pickle
import sys
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
        # the grid's pad and spacing scale with the width, which must be a float too
        if self.high - self.low == math.inf:
            raise ValueError(f"interval for {self.name} is wider than float range: ({self.low}, {self.high})")
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

    def _ends(self) -> Tuple[float, float]:
        pad = self.nudge * (self.high - self.low)
        return self.low + pad, self.high - pad

    def grid(self) -> np.ndarray:
        return np.linspace(*self._ends(), self.count)


def axis_for(name: str, count: int = 100) -> AxisSpec:
    """Axis covering the full plausible interval of a parameter."""
    lo, hi = _plausible(name)
    return AxisSpec(name=name, low=lo, high=hi, count=count)


@dataclass(frozen=True)
class SweepSpec:
    """Varied axes (1 to 7, unique names) around a fixed parameter set.

    Every grid point must be a set the model accepts: an axis whose first
    or last grid value `ModelParameters` refuses is a ValueError with its
    message.
    """

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
        # the domain is a product of per-rate intervals and a grid is
        # monotone, so the model's rule at a grid's two ends decides it
        for axis in self.varied:
            for value in axis._ends():
                self.fixed.with_(**{axis.name: value})

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(axis.count for axis in self.varied)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(axis.name for axis in self.varied)


@dataclass
class SweepResult:
    """Per-point margins and class codes, in C grid order.

    Point i sits at np.unravel_index(i, spec.shape) on the axis grids
    (`AxisSpec.grid`; last axis fastest), and its class is
    CLASS_NAMES[class_codes[i]]. The code is 3 ('nonexistent') exactly
    where the positive state does not exist, and hurwitz holds NaN there
    and is finite elsewhere (`run_sweep` refuses a margin that overflows).
    The class counts, the unstable points and the Hopf pairs follow from
    these arrays; `sweep_summary` derives them. Content and ordering are
    deterministic for a given spec.
    """

    spec: SweepSpec
    hurwitz: np.ndarray
    class_codes: np.ndarray

    @property
    def n_points(self) -> int:
        return int(self.class_codes.size)


def _eval_columns(cols):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        exists = e2_conditions(
            cols["a1"], cols["a2"], cols["p1"], cols["p2"], cols["d1"], cols["d2"]
        )[3]
        b1, b2, b3 = _extended_coeffs(**cols)
        prod = b1 * b2
        return exists, prod - b3, prod


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate existence and stability over the whole grid.

    Points are evaluated in fixed blocks of `_CHUNK`; each block's
    NaN-masked margins and class codes go straight into the result. So the
    result holds 9 bytes per point (the margin and the class code), and the
    peak is that plus one block's temporaries. Each point's values depend
    only on its own coordinates, so the result does not depend on the block
    size. A margin that overflows where the positive state exists raises
    ValueError.
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
        codes[start:stop] = np.where(ok, hurwitz_codes(h, prod), 3)
    return SweepResult(spec=spec, hurwitz=hurwitz, class_codes=codes)


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

    The calling process is one lane; each other lane is a helper started
    by os.fork. Every lane claims the lowest unclaimed index from one
    shared counter, whose lock is a one-byte token in a pipe. While the
    caller's next result has not arrived, the caller claims and computes
    the next index itself, so it blocks only once every index is claimed.
    Helpers only compute and send their values back, each through its own
    pipe; they write to no file. An index whose helper raised or died is
    computed by the caller, so the caller yields and raises exactly what
    the serial loop would. With one usable CPU, one item, no os.fork, a
    second thread running, or in a daemonic multiprocessing worker, that
    serial loop runs in the caller and no process starts. Every helper is
    killed and reaped before the generator returns, raises or is closed.
    """
    helpers = min(_usable_cpus(), n) - 1
    if helpers > 0:
        import threading

        # a daemonic process (a pool worker, say) may not start processes,
        # and a fork copies no thread but every lock another thread holds;
        # such a worker has loaded multiprocessing, so nothing is imported
        mp = sys.modules.get("multiprocessing")
        if (
            not hasattr(os, "fork")
            or (mp is not None and mp.current_process().daemon)
            or threading.active_count() > 1
        ):
            helpers = 0
    if helpers <= 0:
        for index in range(n):
            yield fn(index)
        return

    import fcntl
    import mmap
    import select
    import signal

    # slot 0 is the next unclaimed index; slot i + 1 the lane that claimed i
    # (0 for the caller, or not yet claimed)
    shared = mmap.mmap(-1, 8 * (n + 1))
    slots = memoryview(shared).cast("q")
    # the lock is free while its one byte is in the pipe
    token_r, token_w = os.pipe()
    os.write(token_w, b"\0")

    def claim(lane):
        os.read(token_r, 1)
        try:
            index = slots[0]
            if index >= n:
                return None
            slots[0] = index + 1
            slots[index + 1] = lane
        finally:
            os.write(token_w, b"\0")
        return index

    pids, readers, polls, held = [], {}, {}, {}
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
            reader, writer = os.pipe()
            # room for several CSV blocks, so that a helper goes on to its
            # next items instead of waiting until the caller reads this one
            with contextlib.suppress(AttributeError, OSError):
                fcntl.fcntl(writer, fcntl.F_SETPIPE_SZ, 1 << 20)
            try:
                pid = os.fork()
            except OSError:  # no fork to be had: the lanes started so far do the work
                os.close(reader)
                os.close(writer)
                break
            if pid == 0:
                # the helper closes its copies of every read end, so that it
                # cannot block forever on a pipe that only it still reads;
                # os._exit never flushes or closes a copy of the caller's
                # files and buffers
                try:
                    _lane(fn, claim, lane, writer, [reader, *readers.values()])
                finally:
                    os._exit(0)
            # started later, a helper must not hold this write end open,
            # or the caller would never see this helper's end of file
            os.close(writer)
            pids.append(pid)
            readers[lane] = reader
            polls[lane] = select.poll()
            polls[lane].register(reader, select.POLLIN)
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
                if more and not polls[lane].poll(0):
                    nxt = claim(0)
                    if nxt is not None:
                        compute(nxt)
                        continue
                try:
                    held[index] = (True, _receive(reader))
                except EOFError:
                    os.close(readers.pop(lane))
            ok, value = held.pop(index)
            if not ok:
                raise value
            yield value
    finally:
        for reader in readers.values():
            os.close(reader)
        for pid in pids:
            # whatever a helper still computes is not wanted
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        os.close(token_r)
        os.close(token_w)
        slots.release()
        shared.close()


def _lane(fn, claim, lane, writer, inherited):
    """A helper's whole life: claim, compute and send until nothing is left.

    An exception ends it quietly, and the caller computes the index it held.
    """
    for reader in inherited:
        os.close(reader)
    while True:
        index = claim(lane)
        if index is None:
            break
        _send(writer, fn(index))


def _send(fd, value):
    """Write value to the pipe fd as an 8-byte length and then its pickle."""
    data = pickle.dumps(value)
    for part in (len(data).to_bytes(8, "little"), data):
        view = memoryview(part)
        while view:
            view = view[os.write(fd, view):]


def _receive(fd):
    """The next value that _send wrote to the pipe fd.

    EOFError if the writer closed its end first, as a helper that died does.
    """
    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _read(fd, size):
    """Exactly size bytes from the pipe fd, read straight into one buffer."""
    data = bytearray(size)
    view, got = memoryview(data), 0
    while got < size:
        count = os.readv(fd, [view[got:]])
        if count == 0:
            raise EOFError("a lane's pipe closed")
        got += count
    return data


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
    """JSON-ready aggregate view: counts, Hopf pairs, unstable bounds, sample points.

    All of it is derived from the result's arrays: the class counts from
    the codes, the Hopf pairs (`_hopf_pairs`) from the margins, and the
    unstable points (code 1, in grid order) from the axis grids. The bounds
    are each axis's min and max over the unstable points ({} when there is
    none). At most `_SUMMARY_POINTS` (1000) unstable points are listed.
    """
    spec, codes = result.spec, result.class_codes
    # one comparison per class: a bincount would first cast every code to intp
    counts = {name: int(np.count_nonzero(codes == code)) for code, name in enumerate(CLASS_NAMES)}
    picked = np.unravel_index(np.flatnonzero(codes == 1), spec.shape)
    pts = np.column_stack([axis.grid()[at] for axis, at in zip(spec.varied, picked)])
    bounds = {}
    if pts.size:
        lows, highs = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
        bounds = {name: [lo, hi] for name, lo, hi in zip(spec.names, lows, highs)}
    return {
        "axes": [
            {"name": a.name, "low": a.low, "high": a.high, "count": a.count}
            for a in spec.varied
        ],
        "total_points": result.n_points,
        "counts": counts,
        "hopf_adjacent_pairs": _hopf_pairs(result.hurwitz, spec.shape),
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
    state = steady_state_E2(params)
    if state is None:
        return None
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

