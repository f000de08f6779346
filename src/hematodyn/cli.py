"""Command-line front end.

Commands: simulate | stability | hopf | sweep | classify | constellations.
Configuration is a flat key = value text file ('#' starts a comment);
--set key=value overrides individual entries. Rates are per day; the
--rescaled flag renormalizes so the stem-cell proliferation rate is 1
before dispatch, which makes times come out in rescaled units.

Model parameters missing from the configuration fall back to the
reference values. Exit codes: 0 success, 2 invalid configuration,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import io
import sys
from typing import Dict, Optional

from .analysis import classify, default_horizon
from .integrator import IntegrationConfig, IntegrationError, integrate
from .model import CellState, ModelParameters, nondimensionalize
from .serialize import (
    constellation_report_to_dict,
    dumps,
    hopf_to_dict,
    stability_report_to_dict,
    verdict_to_dict,
    write_trajectory_csv,
)
from .stability import hopf_point, stability_reports
from .sweep import (
    REFERENCE_PARAMETERS,
    AxisSpec,
    SweepSpec,
    check_constellations,
    run_sweep,
    sweep_summary,
    write_sweep_csv,
)

__all__ = ["main", "entrypoint"]

_PARAM_KEYS = ("a1", "a2", "p1", "p2", "d1", "d2", "d3", "k")


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> Dict[str, str]:
    """Flat key = value lines; blank lines and '#' comments are skipped."""
    values: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _load_config(args) -> Dict[str, str]:
    values: Dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                values.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        values[key.strip()] = value.strip()
    return values


def _get_float(cfg, key, default=None, required=False) -> Optional[float]:
    if key not in cfg:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {cfg[key]!r}") from exc


def _get_bool(cfg, key, default: bool) -> bool:
    if key not in cfg:
        return default
    raw = cfg[key].lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: not a boolean: {cfg[key]!r}")


def _build_params(cfg, rescaled: bool) -> ModelParameters:
    kwargs = {key: getattr(REFERENCE_PARAMETERS, key) for key in _PARAM_KEYS}
    for key in _PARAM_KEYS:
        value = _get_float(cfg, key)
        if value is not None:
            kwargs[key] = value
    params = ModelParameters(**kwargs)
    return nondimensionalize(params) if rescaled else params


def _build_initial(cfg) -> CellState:
    return CellState(
        _get_float(cfg, "u1", required=True),
        _get_float(cfg, "u2", required=True),
        _get_float(cfg, "u3", required=True),
    )


def _integration_config(cfg) -> IntegrationConfig:
    return IntegrationConfig(
        t_end=_get_float(cfg, "t_end", required=True),
        rel_tol=_get_float(cfg, "rel_tol", 1e-8),
        abs_tol=_get_float(cfg, "abs_tol", 1e-3),
        max_step=_get_float(cfg, "max_step"),
        initial_step=_get_float(cfg, "initial_step"),
        output_stride=_get_float(cfg, "output_stride"),
    )


def _write_text(out: Optional[str], text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    params = _build_params(cfg, args.rescaled)
    initial = _build_initial(cfg)
    traj = integrate(params, initial, _integration_config(cfg))
    buffer = io.StringIO()
    write_trajectory_csv(traj, buffer)
    _write_text(args.out, buffer.getvalue())
    return 0


def _cmd_stability(args) -> int:
    cfg = _load_config(args)
    params = _build_params(cfg, args.rescaled)
    reports = stability_reports(params)
    payload = {label: stability_report_to_dict(reports[label]) for label in ("E0", "E1", "E2")}
    _write_text(args.out, dumps(payload))
    return 0


def _cmd_hopf(args) -> int:
    cfg = _load_config(args)
    params = _build_params(cfg, args.rescaled)
    report = hopf_point(params.a1, params.a2, params.d3, params.p1)
    _write_text(args.out, dumps(hopf_to_dict(report)))
    return 0


def _cmd_classify(args) -> int:
    cfg = _load_config(args)
    params = _build_params(cfg, args.rescaled)
    initial = _build_initial(cfg)
    horizon = _get_float(cfg, "horizon")
    if horizon is None:
        horizon = default_horizon(params)
    verdict = classify(
        params,
        initial,
        horizon,
        transient_fraction=_get_float(cfg, "transient_fraction", 0.5),
        equilibrium_tol=_get_float(cfg, "equilibrium_tol", 1e-3),
        agreement_tol=_get_float(cfg, "agreement_tol", 0.02),
        rel_tol=_get_float(cfg, "rel_tol", 1e-8),
        abs_tol=_get_float(cfg, "abs_tol", 1e-3),
        output_stride=_get_float(cfg, "output_stride"),
    )
    _write_text(args.out, dumps(verdict_to_dict(verdict)))
    return 0


def _parse_axes(cfg) -> SweepSpec:
    raw = cfg.get("vary")
    if not raw:
        raise ConfigError(
            "sweep needs vary = name:low:high[:count], ';'-separated for several axes"
        )
    axes = []
    for part in raw.split(";"):
        fields = part.strip().split(":")
        if len(fields) not in (3, 4):
            raise ConfigError(f"bad axis spec {part!r}, want name:low:high[:count]")
        name = fields[0].strip()
        try:
            low, high = float(fields[1]), float(fields[2])
            count = int(fields[3]) if len(fields) == 4 else 100
        except ValueError as exc:
            raise ConfigError(f"bad axis spec {part!r}: {exc}") from exc
        # user-stated intervals are taken literally (closed, no endpoint nudge)
        axes.append(AxisSpec(name=name, low=low, high=high, count=count, nudge=0.0))
    fixed_cfg = {key: value for key, value in cfg.items() if key in _PARAM_KEYS}
    fixed = _build_params(fixed_cfg, rescaled=False) if fixed_cfg else REFERENCE_PARAMETERS
    return SweepSpec(varied=tuple(axes), fixed=fixed)


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if not args.out:
        raise ConfigError("sweep writes CSV to --out; the JSON summary goes to stdout")
    spec = _parse_axes(cfg)
    result = run_sweep(spec)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_sweep_csv(result, fh)
    sys.stdout.write(dumps(sweep_summary(result)))
    return 0


def _cmd_constellations(args) -> int:
    cfg = _load_config(args)
    run_classify = _get_bool(cfg, "classify", True)
    reports = check_constellations(run_classify=run_classify)
    payload = {}
    for report in reports:
        key = "reference" if report.index == 0 else f"constellation_{report.index}"
        payload[key] = constellation_report_to_dict(report)
    _write_text(args.out, dumps(payload))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "stability": _cmd_stability,
    "hopf": _cmd_hopf,
    "sweep": _cmd_sweep,
    "classify": _cmd_classify,
    "constellations": _cmd_constellations,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hematodyn",
        description="Three-compartment white blood cell model: simulation, "
        "stability, bifurcation search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "integrate the model and write a t,u1,u2,u3 CSV",
        "stability": "JSON stability report for the steady states",
        "hopf": "closed-form bifurcation point (basic variant)",
        "sweep": "grid sweep; CSV to --out, JSON summary to stdout",
        "classify": "long-run verdict for one initial condition",
        "constellations": "evaluate the example oscillation parameter sets",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--rescaled", action="store_true",
                       help="renormalize rates so the stem proliferation rate is 1")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one configuration entry (repeatable)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
