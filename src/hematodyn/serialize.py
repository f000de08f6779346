"""JSON and CSV emission with deterministic float formatting.

Floats are written with 17 significant digits, enough for exact binary
round-trips, so identical computations produce identical bytes and the
acceptance determinism checks can compare files directly. Non-finite
values use the NaN/Infinity literals that json.loads already accepts.
The module only writes: json.loads gives back exactly the emitted dicts.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Dict

import numpy as np

from .analysis import AttractorVerdict
from .model import PARAM_NAMES, ModelParameters
from .stability import HopfReport, StabilityReport
from .sweep import _CHUNK, ConstellationReport

__all__ = [
    "dumps",
    "write_trajectory_csv",
    "params_to_dict",
    "stability_report_to_dict",
    "hopf_to_dict",
    "verdict_to_dict",
    "constellation_report_to_dict",
]


def _emit(obj, pad: str) -> str:
    # pad is the indent of obj's line, and a container builds its items' once.
    # Floats first: they are most of every payload, and bool and int are not floats.
    if isinstance(obj, float):
        if obj - obj == 0.0:  # finite: inf - inf and NaN - NaN are NaN
            return "%.17g" % obj
        if obj != obj:
            return "NaN"
        return "Infinity" if obj > 0 else "-Infinity"
    if isinstance(obj, str):
        # the C encoder json.dumps calls for a str under its default settings
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = [
            f"{inner}{encode_basestring_ascii(str(key))}: {_emit(value, inner)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        items = [inner + _emit(value, inner) for value in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (trailing newline included)."""
    return _emit(obj, "") + "\n"


def write_trajectory_csv(traj, fh) -> None:
    """CSV columns t,u1,u2,u3; '.' decimals, newline-terminated rows.

    Each block of `_CHUNK` rows (the sweep's evaluation block size) is
    formatted by one `%` call and written by one `fh.write`.
    """
    fh.write("t,u1,u2,u3\n")
    for start in range(0, len(traj.times), _CHUNK):
        stop = start + _CHUNK
        block = np.column_stack((traj.times[start:stop], traj.states[start:stop]))
        fh.write("%.17g,%.17g,%.17g,%.17g\n" * len(block) % tuple(block.ravel().tolist()))


def params_to_dict(params: ModelParameters) -> dict:
    return {name: getattr(params, name) for name in PARAM_NAMES}


def _complex_pairs(values) -> list:
    return [[z.real, z.imag] for z in values]


def _fields(obj) -> dict:
    # a shallow copy of a flat dataclass's fields, in declaration order (the
    # generated __init__ sets them in that order); `asdict` would deep-copy
    return vars(obj).copy()


def stability_report_to_dict(report: StabilityReport) -> dict:
    eq = report.equilibrium
    coeffs = report.coeffs
    return {
        "label": report.label,
        "exists": eq is not None,
        "equilibrium": _fields(eq) if eq else None,
        "coeffs": _fields(coeffs) if coeffs else None,
        "hurwitz": report.hurwitz,
        "eigenvalues": _complex_pairs(report.eigenvalues) if report.eigenvalues else None,
        "classification": report.classification,
    }


# One entry of the `stability` command's payload as `dumps` lays it out: a
# state with no equilibrium takes its label and classification, and a present
# one its label, counts, coefficients, margin, eigenvalue pairs and
# classification. A field added to the report reaches that command's output
# only through these; `tests/test_serialize.py` holds them to `dumps`.
_ABSENT_STATE = """\
  "%s": {
    "label": "%s",
    "exists": false,
    "equilibrium": null,
    "coeffs": null,
    "hurwitz": null,
    "eigenvalues": null,
    "classification": "%s"
  }"""

_PRESENT_STATE = """\
  "%s": {
    "label": "%s",
    "exists": true,
    "equilibrium": {
      "u1": %.17g,
      "u2": %.17g,
      "u3": %.17g
    },
    "coeffs": {
      "b1": %.17g,
      "b2": %.17g,
      "b3": %.17g
    },
    "hurwitz": %.17g,
    "eigenvalues": [
      [
        %.17g,
        %.17g
      ],
      [
        %.17g,
        %.17g
      ],
      [
        %.17g,
        %.17g
      ]
    ],
    "classification": "%s"
  }"""


def _stability_json(reports: Dict[str, StabilityReport]) -> str:
    """`dumps({label: stability_report_to_dict(reports[label])})` for E0, E1, E2.

    Each state fills one template with one `%`. Every float of a report is
    finite (`stability_report` refuses an overflowing polynomial and
    `CellState` non-finite counts), so `%.17g` writes what `_emit` writes,
    without its walk over the nested dicts and lists.
    """
    entries = []
    for label in ("E0", "E1", "E2"):
        report = reports[label]
        if report.equilibrium is None:
            entries.append(_ABSENT_STATE % (label, report.label, report.classification))
            continue
        state, coeffs = report.equilibrium, report.coeffs
        z1, z2, z3 = report.eigenvalues
        entries.append(_PRESENT_STATE % (
            label, report.label, state.u1, state.u2, state.u3,
            coeffs.b1, coeffs.b2, coeffs.b3, report.hurwitz,
            z1.real, z1.imag, z2.real, z2.imag, z3.real, z3.imag,
            report.classification,
        ))
    return "{\n" + ",\n".join(entries) + "\n}\n"


def hopf_to_dict(report: HopfReport) -> dict:
    return _fields(report)


def verdict_to_dict(verdict: AttractorVerdict) -> dict:
    return _fields(verdict)


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
