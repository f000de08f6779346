"""JSON and CSV emission with deterministic float formatting.

Floats are written with 17 significant digits, enough for exact binary
round-trips, so identical computations produce identical bytes and the
acceptance determinism checks can compare files directly. Non-finite
values use the NaN/Infinity literals that json.loads already accepts.
"""

from __future__ import annotations

import json
import math

from .analysis import AttractorVerdict
from .model import PARAM_NAMES, CellState, ModelParameters, SteadyState
from .stability import CharPolyCoeffs, HopfReport, StabilityReport
from .sweep import ConstellationReport

__all__ = [
    "dumps",
    "write_trajectory_csv",
    "params_to_dict",
    "params_from_dict",
    "stability_report_to_dict",
    "stability_report_from_dict",
    "hopf_to_dict",
    "hopf_from_dict",
    "verdict_to_dict",
    "verdict_from_dict",
    "constellation_report_to_dict",
]


def _format_float(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return "%.17g" % value


def _emit(obj, level: int) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            f"{inner}{json.dumps(str(key))}: {_emit(value, level + 1)}"
            for key, value in obj.items()
        )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{inner}{_emit(value, level + 1)}" for value in obj)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (trailing newline included)."""
    return _emit(obj, 0) + "\n"


def write_trajectory_csv(traj, fh) -> None:
    """CSV columns t,u1,u2,u3; '.' decimals, newline-terminated rows."""
    fh.write("t,u1,u2,u3\n")
    for t, row in zip(traj.times, traj.states):
        fh.write("%.17g,%.17g,%.17g,%.17g\n" % (t, row[0], row[1], row[2]))


def params_to_dict(params: ModelParameters) -> dict:
    return {name: getattr(params, name) for name in PARAM_NAMES}


def params_from_dict(data: dict) -> ModelParameters:
    # absent d1/d2 take the constructor defaults; a missing required key
    # raises the constructor's TypeError
    return ModelParameters(**{name: float(data[name]) for name in PARAM_NAMES if name in data})


def _state_to_dict(state: CellState) -> dict:
    return {"u1": state.u1, "u2": state.u2, "u3": state.u3}


def _state_from_dict(data: dict) -> CellState:
    return CellState(float(data["u1"]), float(data["u2"]), float(data["u3"]))


def _complex_pairs(values) -> list:
    return [[z.real, z.imag] for z in values]


def stability_report_to_dict(report: StabilityReport) -> dict:
    eq = report.equilibrium
    coeffs = report.coeffs
    return {
        "label": report.label,
        "exists": eq is not None,
        "equilibrium": _state_to_dict(eq.state) if eq else None,
        "coeffs": {"b1": coeffs.b1, "b2": coeffs.b2, "b3": coeffs.b3} if coeffs else None,
        "hurwitz": report.hurwitz,
        "eigenvalues": _complex_pairs(report.eigenvalues) if report.eigenvalues else None,
        "classification": report.classification,
    }


def stability_report_from_dict(data: dict) -> StabilityReport:
    label = str(data["label"])
    eq = None
    if data.get("equilibrium") is not None:
        eq = SteadyState(label=label, state=_state_from_dict(data["equilibrium"]))
    coeffs = None
    if data.get("coeffs") is not None:
        c = data["coeffs"]
        coeffs = CharPolyCoeffs(float(c["b1"]), float(c["b2"]), float(c["b3"]))
    eigenvalues = None
    if data.get("eigenvalues") is not None:
        eigenvalues = tuple(complex(re, im) for re, im in data["eigenvalues"])
    hurwitz = data.get("hurwitz")
    return StabilityReport(
        label=label,
        equilibrium=eq,
        coeffs=coeffs,
        hurwitz=float(hurwitz) if hurwitz is not None else None,
        eigenvalues=eigenvalues,
        classification=str(data["classification"]),
    )


def hopf_to_dict(report: HopfReport) -> dict:
    return {
        "p2_star": report.p2_star,
        "d3_max": report.d3_max,
        "omega": report.omega,
        "lambda3": report.lambda3,
        "mu_prime": report.mu_prime,
    }


def hopf_from_dict(data: dict) -> HopfReport:
    return HopfReport(
        p2_star=float(data["p2_star"]),
        d3_max=float(data["d3_max"]),
        omega=float(data["omega"]),
        lambda3=float(data["lambda3"]),
        mu_prime=float(data["mu_prime"]),
    )


def verdict_to_dict(verdict: AttractorVerdict) -> dict:
    return {
        "kind": verdict.kind,
        "label": verdict.label,
        "period": verdict.period,
        "amplitude_u3": verdict.amplitude_u3,
        "final_distance": verdict.final_distance,
    }


def verdict_from_dict(data: dict) -> AttractorVerdict:
    period = data.get("period")
    amplitude = data.get("amplitude_u3")
    return AttractorVerdict(
        kind=str(data["kind"]),
        label=data.get("label"),
        period=float(period) if period is not None else None,
        amplitude_u3=float(amplitude) if amplitude is not None else None,
        final_distance=float(data["final_distance"]),
    )


def constellation_report_to_dict(report: ConstellationReport) -> dict:
    return {
        "index": report.index,
        "overrides": {key: float(v) for key, v in report.overrides.items()},
        "params": params_to_dict(report.params),
        "e2_exists": report.e2_exists,
        "hurwitz": report.hurwitz,
        "classification": report.classification,
        "verdict": verdict_to_dict(report.verdict) if report.verdict else None,
    }
