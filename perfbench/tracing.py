"""Spans around calls into hematodyn's layers, recorded from outside the package.

Each layer entry point is wrapped by identity: every binding of the function
object in a loaded ``hematodyn.*`` module is replaced while the tracer is
attached, which covers
``from .x import y`` copies and imports done inside functions (those read
the patched module attribute at call time). Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from stats import self_time

LAYERS = ("cli", "sweep", "serialize", "analysis", "integrator", "stability", "cubic", "model")


def _config_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["config"]


# (layer, module, function, info(args, kwargs, result) -> dict or None).
# write_sweep_csv and sweep_summary live in the sweep module but emit the
# sweep's output, so they count as serialisation.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "cli", "main", lambda a, k, r: {"exit": r}),
    ("sweep", "sweep", "run_sweep", lambda a, k, r: {"points": r.n_points}),
    ("sweep", "sweep", "check_constellations", None),
    ("serialize", "sweep", "write_sweep_csv",
     lambda a, k, r: {"rows": a[0].n_points, "bytes": getattr(a[1], "nchars", 0)}),
    ("serialize", "sweep", "sweep_summary", None),
    ("serialize", "serialize", "dumps", lambda a, k, r: {"bytes": len(r)}),
    ("serialize", "serialize", "write_trajectory_csv", lambda a, k, r: {"rows": len(a[0].times)}),
    ("serialize", "serialize", "stability_report_to_dict", None),
    ("serialize", "serialize", "hopf_to_dict", None),
    ("serialize", "serialize", "verdict_to_dict", None),
    ("serialize", "serialize", "constellation_report_to_dict", None),
    ("analysis", "analysis", "classify", lambda a, k, r: {"decided": r.kind != "undecided"}),
    ("analysis", "analysis", "default_horizon", None),
    ("analysis", "analysis", "oscillation_report", None),
    ("integrator", "integrator", "integrate",
     lambda a, k, r: {"days": float(_config_arg(a, k).t_end), "samples": len(r.times)}),
    ("stability", "stability", "stability_reports", None),
    ("stability", "stability", "hopf_point", None),
    ("cubic", "cubic", "solve_cubic", None),
    ("model", "model", "steady_states", None),
    ("model", "model", "steady_state_E2", None),
)


def bindings_of(target) -> List[Tuple[object, str]]:
    """(module, attribute) of every binding of `target` in the loaded hematodyn.* modules."""
    modules = [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "hematodyn" or name.startswith("hematodyn."))
    ]
    return [(mod, attr) for mod in modules for attr, value in vars(mod).items() if value is target]


@contextlib.contextmanager
def patched(target, wrapper):
    """Replace every binding of `target` by `wrapper` for the duration of the block."""
    found = bindings_of(target)
    for mod, attr in found:
        setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr in found:
            setattr(mod, attr, target)


@dataclass
class Span:
    sid: int
    layer: str
    name: str
    parent: Optional[int]
    op: Optional[int]
    nested: bool  # an enclosing span belongs to the same layer
    start: float = 0.0
    end: float = 0.0
    key: Optional[int] = None
    info: Optional[dict] = None
    error: Optional[str] = None


class Tracer:
    """Records one span per call of a wrapped entry point while attached.

    `param_key`, when given, maps the ModelParameters a call receives as its
    first argument to a small integer stored on the span (the audit uses it
    to attribute time to constellation sets).
    """

    def __init__(self, param_key: Optional[Callable[[object], Optional[int]]] = None):
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self.bindings: Dict[str, int] = {}
        self._param_key = param_key
        self._stack: List[Span] = []
        self._depth: Dict[str, int] = {layer: 0 for layer in LAYERS}
        # (module, attribute, original, wrapper) for every patched binding
        self._patches: List[Tuple[object, str, object, object]] = []

    def _wrap(self, layer: str, name: str, fn, info):
        from hematodyn.model import ModelParameters

        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(
                sid=len(tracer.spans),
                layer=layer,
                name=name,
                parent=stack[-1].sid if stack else None,
                op=tracer.op,
                nested=tracer._depth[layer] > 0,
            )
            if tracer._param_key is not None and args and isinstance(args[0], ModelParameters):
                span.key = tracer._param_key(args[0])
            tracer.spans.append(span)
            stack.append(span)
            tracer._depth[layer] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._depth[layer] -= 1
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def _find_bindings(self) -> None:
        for layer, modname, fname, info in ENTRY_POINTS:
            target = getattr(sys.modules["hematodyn." + modname], fname)
            wrapper = self._wrap(layer, fname, target, info)
            found = bindings_of(target)
            self._patches += [(mod, attr, target, wrapper) for mod, attr in found]
            self.bindings[f"{layer}:{fname}"] = len(found)

    def attach(self) -> None:
        """Replace every binding of every entry point across hematodyn.* modules."""
        if not self._patches:
            self._find_bindings()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def detach(self) -> None:
        """Put the original functions back."""
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def dump(self) -> List[dict]:
        return [asdict(span) for span in self.spans]


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def span_self_times(spans: List[Span]) -> List[float]:
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [self_time(s.start, s.end, children.get(s.sid, ())) for s in spans]


def layer_totals(spans: List[Span]) -> Dict[str, LayerTotals]:
    """calls, busy time (outermost spans of the layer) and self time per layer."""
    totals = {layer: LayerTotals() for layer in LAYERS}
    for span, own in zip(spans, span_self_times(spans)):
        entry = totals[span.layer]
        entry.calls += 1
        entry.self_s += own
        if not span.nested:
            entry.busy_s += span.end - span.start
    return totals


def _ancestors(spans: List[Span], span: Span):
    while span.parent is not None:
        span = spans[span.parent]
        yield span


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics named <layer>.<metric>; absent layers read 0."""
    totals = layer_totals(spans)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = totals[layer].calls
        out[f"{layer}.busy_s"] = totals[layer].busy_s
        out[f"{layer}.self_s"] = totals[layer].self_s

    def of(name):
        return [s for s in spans if s.name == name]

    def dur(group):
        return sum(s.end - s.start for s in group)

    csv = of("write_sweep_csv")
    out["serialize.csv_rows"] = sum(s.info["rows"] for s in csv if s.info)
    out["serialize.csv_bytes"] = sum(s.info["bytes"] for s in csv if s.info)
    out["serialize.csv_busy_s"] = dur(csv)
    out["serialize.csv_rows_per_s"] = _ratio(out["serialize.csv_rows"], dur(csv))
    dumps = of("dumps")
    out["serialize.dumps_calls"] = len(dumps)
    out["serialize.dumps_bytes"] = sum(s.info["bytes"] for s in dumps if s.info)
    out["serialize.dumps_busy_s"] = dur(dumps)
    traj = of("write_trajectory_csv")
    out["serialize.traj_rows"] = sum(s.info["rows"] for s in traj if s.info)
    out["serialize.traj_busy_s"] = dur(traj)

    sweeps = of("run_sweep")
    out["sweep.points"] = sum(s.info["points"] for s in sweeps if s.info)
    out["sweep.points_per_s"] = _ratio(out["sweep.points"], dur(sweeps))
    audit_ids = {s.sid for s in of("check_constellations")}
    in_audit = [s for s in spans if any(a.sid in audit_ids for a in _ancestors(spans, s))]
    audit_classify = [s for s in in_audit if s.name == "classify"]
    out["sweep.audit_restarts"] = len(audit_classify) - len({(s.op, s.key) for s in audit_classify})
    out["sweep.audit_days"] = sum(
        s.info["days"] for s in in_audit if s.name == "integrate" and s.info
    )

    integ = of("integrate")
    out["integrator.days"] = sum(s.info["days"] for s in integ if s.info)
    out["integrator.days_per_s"] = _ratio(out["integrator.days"], totals["integrator"].busy_s)
    out["integrator.samples"] = sum(s.info["samples"] for s in integ if s.info)
    out["integrator.errors"] = sum(1 for s in integ if s.error)

    verdicts = [s for s in of("classify") if s.info]
    out["analysis.decided_ratio"] = _ratio(sum(s.info["decided"] for s in verdicts), len(verdicts))

    out["cli.exit_nonzero"] = sum(1 for s in of("main") if s.info and s.info["exit"] != 0)
    return out


def op_layer_self(spans: List[Span], layer: str) -> Dict[int, float]:
    """Self time of one layer per operation id."""
    out: Dict[int, float] = {}
    for span, own in zip(spans, span_self_times(spans)):
        if span.layer == layer and span.op is not None:
            out[span.op] = out.get(span.op, 0.0) + own
    return out


def key_times(spans: List[Span], under: str) -> Dict[int, float]:
    """Wall time of direct children of `under` spans, summed per span key."""
    parents = {s.sid for s in spans if s.name == under}
    out: Dict[int, float] = {}
    for span in spans:
        if span.parent in parents and span.key is not None:
            out[span.key] = out.get(span.key, 0.0) + span.end - span.start
    return out


