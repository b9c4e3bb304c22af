"""Command-line interface: verification, grid exports, plots, reports.

Subcommands: verify (property suites, JSON report), classify-grid (CSV
of one slice), slice-plot (SVG of one slice), decompose (JSON report of
a surface decomposition).  Options resolve as CLI flag over config-file
entry over built-in default.  Exit codes: 0 success, 1 suite failure,
2 usage or configuration error.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

from . import gridplot, smoothing, surfaces, verify
from .flow import FlowSettings
from .geometry import SteinParams


@dataclass
class RunConfig:
    """Resolved options shared by every subcommand."""

    epsilon: float = 16.0
    alpha: float = 1.5
    band_tol: float = None
    grid: int = 201
    seed: int = 0
    max_time: float = 60.0
    escape_radius: float = None
    out: str = None
    smoothing: str = "pure"
    surface: str = None
    slice: str = "im:0"
    sample_scale: float = 1.0
    box: float = None
    suite: list = None
    timings: str = None


class ConfigError(ValueError):
    """Invalid option combination; maps to exit code 2."""


def _validate(config):
    if not 1.0 < config.alpha < math.inf:
        raise ConfigError(
            "alpha=%g is not allowed: the saddle model requires finite "
            "alpha > 1 (the unstable rate alpha-1 must be positive)" % config.alpha
        )
    if not config.epsilon > 0.0:
        raise ConfigError("epsilon must be positive")
    if config.smoothing not in ("pure", "cutoff"):
        raise ConfigError("smoothing must be 'pure' or 'cutoff'")
    if config.grid < 1:
        raise ConfigError("grid must be at least 1")
    if not 0.0 < config.sample_scale < math.inf:
        raise ConfigError("sample-scale must be positive and finite")
    if not config.max_time > 0.0:
        raise ConfigError("max-time must be positive")
    if config.escape_radius is not None and not config.escape_radius > 0.0:
        raise ConfigError("escape-radius must be positive")
    if config.band_tol is not None and config.band_tol < 0.0:
        raise ConfigError("band-tol must be nonnegative")
    if config.box is not None and not 0.0 < config.box < math.inf:
        raise ConfigError("box must be positive and finite")


def resolve_config(args):
    """RunConfig from defaults, then config file, then CLI flags."""
    config = RunConfig()
    names = {f.name for f in fields(RunConfig)}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in data.items():
            name = key.replace("-", "_")
            if name not in names:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(config, name, value)
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, value)
    _user_input(_validate, config)
    return config


def _user_input(build, *args, **kwargs):
    """build(*args, **kwargs), its TypeError or ValueError a ConfigError."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid option value: {exc}") from exc


def _write_out(out, text):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc


def _check_out(out):
    """Raise the ConfigError of _write_out now, before any computing.

    The probe opens in append mode, so an existing file keeps its bytes,
    and removes a file it created, so a run that fails later leaves none.
    """
    if not out:
        return
    existed = os.path.exists(out)
    try:
        open(out, "a", encoding="utf-8").close()
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc
    if not existed:
        os.remove(out)


def _stein(config):
    return SteinParams(
        alpha=config.alpha, epsilon=config.epsilon, smoothing=config.smoothing
    )


def _settings(config):
    return FlowSettings(
        max_time=config.max_time, escape_radius=config.escape_radius
    )


def cmd_verify(config):
    vconf = _user_input(
        verify.VerifyConfig,
        seed=config.seed,
        sample_scale=config.sample_scale,
        epsilon=config.epsilon,
        alpha=config.alpha,
        suites=config.suite,
    )
    _check_out(config.out)
    _check_out(config.timings)
    timings = {}
    report = (verify.run_all(vconf, timings) if config.timings
              else verify.run_all(vconf))
    _write_out(config.out, verify.report_json(report))
    if config.timings:
        _write_out(config.timings, json.dumps(timings, indent=2) + "\n")
    return 0 if report["passed"] else 1


def _grid_result(config):
    spec = _user_input(gridplot.parse_slice, config.slice)
    params = _stein(config)
    return gridplot.classify_grid(
        spec,
        params,
        _settings(config),
        grid_n=config.grid,
        box=_user_input(gridplot.grid_box, spec, params, config.box),
        band_tol=config.band_tol,
    )


def cmd_classify_grid(config):
    _check_out(config.out)
    _write_out(config.out, gridplot.grid_csv(_grid_result(config)))
    return 0


def cmd_slice_plot(config):
    out = config.out or "slice.svg"
    _check_out(out)
    _write_out(out, gridplot.grid_svg(_grid_result(config)))
    return 0


def cmd_decompose(config):
    if not config.surface:
        raise ConfigError("decompose needs --surface <file or builtin name>")
    try:
        surf = surfaces.load_surface(config.surface)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot load surface: {exc}") from exc
    violations = [
        v for v in surfaces.validate(surf) if v["severity"] == surfaces.SEV_ERROR
    ]
    if violations:
        sys.stderr.write(json.dumps({"violations": violations}, sort_keys=True,
                                    indent=2) + "\n")
        return 2
    report = surfaces.enumerate_decomposition(surf).to_report()
    _write_out(config.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


_COMMANDS = {
    "verify": cmd_verify,
    "classify-grid": cmd_classify_grid,
    "slice-plot": cmd_slice_plot,
    "decompose": cmd_decompose,
}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--epsilon", type=float, help="smoothing scale (> 0)")
    common.add_argument("--alpha", type=float, help="saddle exponent (> 1)")
    common.add_argument("--band-tol", dest="band_tol", type=float,
                        help="hypersurface band half-width for labels")
    common.add_argument("--grid", type=int, help="grid resolution per axis")
    common.add_argument("--seed", type=int, help="seed for randomized suites")
    common.add_argument("--max-time", dest="max_time", type=float,
                        help="flow integration time limit")
    common.add_argument("--escape-radius", dest="escape_radius", type=float,
                        help="escape detection radius")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--smoothing", choices=("pure", "cutoff"),
                        help="smoothing profile")
    common.add_argument("--surface", help="surface JSON file or builtin name "
                        "(example-5.3, p1-minus-4pts)")
    common.add_argument("--config", help="JSON file with option defaults")
    common.add_argument("--slice", help="drawing plane, e.g. im:0 or z1:-40")
    common.add_argument("--sample-scale", dest="sample_scale", type=float,
                        help="multiplier on suite sample counts")
    common.add_argument("--box", type=float, help="half-width of the grid box")

    parser = argparse.ArgumentParser(
        prog="symsector",
        description="Sectorial decompositions of the symmetric square: "
        "numerical model and combinatorial enumeration.",
    )
    sub = parser.add_subparsers(dest="command")
    verify_cmd = sub.add_parser(
        "verify", parents=[common],
        help="run the property suites and emit a JSON report")
    verify_cmd.add_argument("--suite", action="append",
                            help="run only this suite (repeatable)")
    verify_cmd.add_argument("--timings",
                            help="also write per-suite wall times to this "
                            "JSON file")
    sub.add_parser("classify-grid", parents=[common],
                   help="classify one slice and emit CSV")
    sub.add_parser("slice-plot", parents=[common],
                   help="classify one slice and write an SVG figure")
    sub.add_parser("decompose", parents=[common],
                   help="enumerate the decomposition of a glued surface")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    try:
        config = resolve_config(args)
        return _COMMANDS[args.command](config)
    except (ConfigError, smoothing.SmoothingError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
