"""Command-line front end.

Commands: simulate | stability | hopf | sweep | classify | constellations.
Configuration is a flat key = value text file ('#' starts a comment);
--set key=value overrides individual entries. Rates are per day; the
--rescaled flag (simulate, stability, hopf and classify) renormalizes so
the stem-cell proliferation rate is 1 before dispatch, which makes times
come out in rescaled units.

A plain call (the command, then whole option names each followed by a
value that does not start with '-') is read without argparse. argparse,
imported only then, takes every other argv: help, errors, abbreviations,
--set=key=value, values starting with '-' and tokens before the command.

Only the keys a configuration gives are passed on: missing model
parameters take the reference values, and missing integration and
classifier settings take the defaults of IntegrationConfig and classify.
A key that no command reads is an error. Exit codes: 0 success, 2 invalid
configuration, 3 numerical failure.
"""

from __future__ import annotations

import dataclasses
import io
import sys
import types
from typing import Dict, Optional

from .analysis import classify
from .integrator import IntegrationConfig, IntegrationError, integrate
from .model import PARAM_NAMES, REFERENCE_PARAMETERS, CellState, ModelParameters, nondimensionalize
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
    AxisSpec,
    SweepSpec,
    check_constellations,
    run_sweep,
    sweep_summary,
    write_sweep_csv,
)

__all__ = ["main", "entrypoint"]

_STATE_KEYS = ("u1", "u2", "u3")
_INTEGRATION_KEYS = tuple(field.name for field in dataclasses.fields(IntegrationConfig))
_CLASSIFY_KEYS = (
    "horizon", "transient_fraction", "equilibrium_tol", "agreement_tol",
    "rel_tol", "abs_tol", "output_stride",
)
# every key some command reads; one config file may serve all commands
_KNOWN_KEYS = frozenset(
    PARAM_NAMES + _STATE_KEYS + _INTEGRATION_KEYS + _CLASSIFY_KEYS + ("vary", "classify")
)


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
    unknown = sorted(set(values) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    return values


def _floats(cfg, keys, required=()) -> Dict[str, float]:
    """The given keys as floats, parsed in `keys` order; the library supplies the defaults."""
    values: Dict[str, float] = {}
    for key in keys:
        if key not in cfg:
            if key in required:
                raise ConfigError(f"missing required key {key!r}")
            continue
        try:
            values[key] = float(cfg[key])
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: not a number: {cfg[key]!r}") from exc
    return values


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
    params = REFERENCE_PARAMETERS.with_(**_floats(cfg, PARAM_NAMES))
    return nondimensionalize(params) if rescaled else params


def _build_initial(cfg) -> CellState:
    return CellState(**_floats(cfg, _STATE_KEYS, required=_STATE_KEYS))


def _write_text(out: Optional[str], text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args, cfg) -> None:
    params = _build_params(cfg, args.rescaled)
    initial = _build_initial(cfg)
    config = IntegrationConfig(**_floats(cfg, _INTEGRATION_KEYS, required=("t_end",)))
    traj = integrate(params, initial, config)
    buffer = io.StringIO()
    write_trajectory_csv(traj, buffer)
    _write_text(args.out, buffer.getvalue())


def _cmd_stability(args, cfg) -> None:
    params = _build_params(cfg, args.rescaled)
    reports = stability_reports(params)
    payload = {label: stability_report_to_dict(reports[label]) for label in ("E0", "E1", "E2")}
    _write_text(args.out, dumps(payload))


def _cmd_hopf(args, cfg) -> None:
    params = _build_params(cfg, args.rescaled)
    if not params.is_basic:
        raise ConfigError(
            f"hopf has a closed form only for the basic variant (d1 = d2 = 0), got "
            f"d1={params.d1}, d2={params.d2}; bracket the extended crossing in p2 "
            f"with bifurcation_bracket"
        )
    report = hopf_point(params.a1, params.a2, params.d3, params.p1)
    _write_text(args.out, dumps(hopf_to_dict(report)))


def _cmd_classify(args, cfg) -> None:
    params = _build_params(cfg, args.rescaled)
    verdict = classify(params, _build_initial(cfg), **_floats(cfg, _CLASSIFY_KEYS))
    _write_text(args.out, dumps(verdict_to_dict(verdict)))


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
    return SweepSpec(varied=tuple(axes), fixed=_build_params(cfg, rescaled=False))


def _cmd_sweep(args, cfg) -> None:
    if not args.out:
        raise ConfigError("sweep writes CSV to --out; the JSON summary goes to stdout")
    spec = _parse_axes(cfg)
    result = run_sweep(spec)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_sweep_csv(result, fh)
    sys.stdout.write(dumps(sweep_summary(result)))


def _cmd_constellations(args, cfg) -> None:
    run_classify = _get_bool(cfg, "classify", True)
    reports = check_constellations(run_classify=run_classify)
    payload = {}
    for report in reports:
        key = "reference" if report.index == 0 else f"constellation_{report.index}"
        payload[key] = constellation_report_to_dict(report)
    _write_text(args.out, dumps(payload))


# name: (handler, help, takes --rescaled); sweep and constellations work
# on the given or bundled rates as they stand, so they do not renormalize
_COMMANDS = {
    "simulate": (_cmd_simulate, "integrate the model and write a t,u1,u2,u3 CSV", True),
    "stability": (_cmd_stability, "JSON stability report for the steady states", True),
    "hopf": (_cmd_hopf, "closed-form bifurcation point (basic variant)", True),
    "sweep": (_cmd_sweep, "grid sweep; CSV to --out, JSON summary to stdout", False),
    "classify": (_cmd_classify, "long-run verdict for one initial condition", True),
    "constellations": (_cmd_constellations, "evaluate the example oscillation parameter sets", False),
}


def _add_options(parser, rescalable: bool) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--out", help="output path (default: stdout)")
    if rescalable:
        parser.add_argument("--rescaled", action="store_true",
                            help="renormalize rates so the stem proliferation rate is 1")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one configuration entry (repeatable)")


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="hematodyn",
        description="Three-compartment white blood cell model: simulation, "
        "stability, bifurcation search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, rescalable) in _COMMANDS.items():
        _add_options(sub.add_parser(name, help=text), rescalable)
    return parser


def _plain_args(argv):
    """argparse's attributes for a plain call (see the module docstring), else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    rescalable = _COMMANDS[argv[0]][2]
    args = types.SimpleNamespace(command=argv[0], config=None, out=None, set=None)
    if rescalable:
        args.rescaled = False
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--rescaled" and rescalable:
            args.rescaled = True
            continue
        value = next(tokens, "-")  # a missing value is refused like a dash
        if token not in ("--config", "--out", "--set") or value.startswith("-"):
            return None
        setattr(args, token[2:], (args.set or []) + [value] if token == "--set" else value)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command][0](args, _load_config(args))
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())
