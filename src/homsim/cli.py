"""Command-line front end: reproducible runs with manifests.

Subcommands::

    homsim jsa     --config cfg.json --n 65 --span 3 --out grid.csv
    homsim dip     --engine gaussian --out curve.csv
    homsim fit     --mode gaussian-dip --data counts.csv --out fit.json
    homsim overlap --target 0.943 --d-mm 5 --lambda-nm 1550

Configuration comes from a single JSON document with laboratory-unit field
names; command-line flags override config fields.  Every command writes a
manifest JSON next to its outputs recording engine, the quadrature that ran and, under
``config``, the laboratory-unit parameters exactly as the run passed them to
``build_config`` (plus a ``derived`` block in internal units), so feeding
that record back through ``--config`` reproduces byte-identical output.

Exit codes: 0 success, 1 I/O error, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Any

import numpy as np

from . import __version__
from .fitdata import fit_gaussian_dip, fit_model, fit_result_to_json, ingest_csv
from .hom import (AnalysisError, dip_curve, dip_metrics, metrics_to_json,
                  write_curve_csv)
from .imperfections import (SpatialGeometry, solve_angle_for_overlap,
                            spatial_overlap)
from .jsa import jsa_grid, write_grid_csv
from .quadrature import AccuracyError
from .units import REFERENCE_PARAMS, ExperimentConfig, FilterShape, build_config

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# the reference parameters have command-line flags; the rest are config-only
_CONFIG_FIELDS = set(REFERENCE_PARAMS) | {
    "idler_filter_fwhm_nm", "idler_filter_shape", "fwhm_convention"}


class ConfigError(ValueError):
    pass


def _load_config(args, filter_mismatch: float = 0.0) -> tuple[ExperimentConfig, dict[str, Any]]:
    """The run's configuration and its manifest record: the laboratory-unit
    parameters exactly as passed to ``build_config``, plus a ``derived`` block."""
    params: dict[str, Any] = dict(REFERENCE_PARAMS)
    if args.config is not None:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = set(doc) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config fields in {args.config}: {sorted(unknown)}")
        params.update(doc)
    params.update({k: v for k in REFERENCE_PARAMS if (v := getattr(args, k)) is not None})
    try:
        if filter_mismatch:
            idler = (params.get("idler_filter_fwhm_nm"), params.get("idler_filter_shape"))
            if idler != (None, None):
                raise ValueError("--filter-mismatch conflicts with the idler filter of the config")
            params["idler_filter_fwhm_nm"] = params["filter_fwhm_nm"] * (1.0 + filter_mismatch)
        cfg = build_config(**params)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None
    return cfg, {**params, "derived": {
        "Omega_rad_per_ps": cfg.Omega_rad_per_ps,
        "Delta_rad_per_ps": cfg.Delta_rad_per_ps,
        "sigma_p_rad_per_ps": cfg.sigma_p_rad_per_ps,
        "sigma_0_rad_per_ps": cfg.sigma_0_rad_per_ps,
        "sigma_supergaussian_rad_per_ps": cfg.sigma_sg_rad_per_ps,
    }}


def _write_manifest(out_path: str, command: str, config: dict[str, Any] | None,
                    extra: dict[str, Any], elapsed_s: float) -> str:
    manifest = {
        "tool": "homsim",
        "version": __version__,
        "command": command,
        "wall_clock_s": elapsed_s,
        "outputs": [out_path] if out_path else [],
    }
    if config is not None:
        manifest["config"] = config
        # super-Gaussian width calibration: the quartic power transmission
        # exp(-2 nu^4 / sigma^4) reaches 1/2 at half the configured power FWHM
        manifest["supergaussian_calibration"] = "half-power-at-configured-fwhm"
    manifest.update(extra)
    man_path = os.path.splitext(out_path)[0] + ".manifest.json" if out_path else f"{command}.manifest.json"
    with open(man_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return man_path


def cmd_jsa(args) -> int:
    t0 = time.perf_counter()
    cfg, record = _load_config(args)
    grid = jsa_grid(cfg, n_points=args.n, span=args.span)
    write_grid_csv(grid, args.out)
    _write_manifest(args.out, "jsa", record,
                    {"grid": {"n_points": args.n, "span_sigma0": args.span}},
                    time.perf_counter() - t0)
    print(f"wrote {args.n * args.n} grid samples to {args.out}")
    return EXIT_OK


def cmd_dip(args) -> int:
    t0 = time.perf_counter()
    span, step = args.delay_max - args.delay_min, args.delay_step
    # a finite count of finite steps over a positive span; rejects infinite or NaN bounds
    if not (span > 0 and step > 0 and math.isfinite(step) and math.isfinite(span / step)):
        raise ConfigError("need finite delays, --delay-step > 0 and --delay-max > --delay-min")
    cfg, record = _load_config(args, args.filter_mismatch)
    delays = np.round(np.arange(0, int(round(span / step)) + 1) * step + args.delay_min, 12)
    curve = dip_curve(cfg, engine=args.engine, delays_ps=delays)
    metrics = dip_metrics(curve)
    write_curve_csv(curve, args.out)
    _write_manifest(args.out, "dip", record, {
        "engine": args.engine,
        "filter_mismatch": args.filter_mismatch,
        "delay_range_ps": [args.delay_min, args.delay_max, args.delay_step],
        "quadrature": curve.quadrature,
    }, time.perf_counter() - t0)
    print(metrics_to_json(metrics))
    return EXIT_OK


def cmd_fit(args) -> int:
    t0 = time.perf_counter()
    if args.mode == "gaussian-dip":  # runs no engine, so it takes no engine or config
        given = [_flag(k) for k in ("config", "engine", *REFERENCE_PARAMS)
                 if getattr(args, k) is not None]
        if given:
            raise ConfigError(f"--mode gaussian-dip does not take {', '.join(given)}")
    data = ingest_csv(args.data)
    record = dense_curve = None
    extra = {"mode": args.mode, "data": args.data}
    if args.mode == "gaussian-dip":
        result = fit_gaussian_dip(data)
        p = result.params
        dense = np.linspace(data.delays_ps[0], data.delays_ps[-1], 501)
        dense_curve = (dense, p["baseline"] * (1.0 - p["visibility"] * np.exp(
            -((dense - p["center_ps"]) ** 2) / (2.0 * p["width_ps"] ** 2))))
    else:
        cfg, record = _load_config(args)
        engine = args.engine or "gaussian"
        result = fit_model(data, cfg, engine=engine)
        extra.update(engine=engine, model=result.model)
    text = fit_result_to_json(result, dense_curve=dense_curve)  # before the file is opened
    with open(args.out, "w") as fh:
        fh.write(text)
    _write_manifest(args.out, "fit", record, extra, time.perf_counter() - t0)
    m = json.loads(text)["derived_metrics"]  # as written: an unbracketed FWHM is null
    print(json.dumps({"visibility": m["visibility"], "fwhm_ps": m["fwhm_ps"],
                      "converged": result.converged}, indent=2, allow_nan=False))
    return EXIT_OK


def cmd_overlap(args) -> int:
    t0 = time.perf_counter()
    d = args.d_mm * 1e-3
    lam = args.lambda_nm * 1e-9
    if (args.target is None) == (args.theta_urad is None):
        raise ConfigError("overlap: provide exactly one of --target and --theta-urad")
    if args.theta_urad is not None:
        theta = args.theta_urad * 1e-6
        overlap = spatial_overlap(SpatialGeometry(d, lam, theta))
        out = {"theta_urad": args.theta_urad, "overlap": overlap}
    else:
        theta = solve_angle_for_overlap(args.target, d, lam)
        achieved = spatial_overlap(SpatialGeometry(d, lam, theta))
        out = {"target": args.target, "theta_rad": theta,
               "theta_urad": theta * 1e6, "achieved_overlap": achieved}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=2)
    _write_manifest(args.out or "", "overlap", None, {"result": out, "d_mm": args.d_mm,
                                                      "lambda_nm": args.lambda_nm},
                    time.perf_counter() - t0)
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _flag(name: str) -> str:
    """The command-line flag of an argument."""
    return "--" + name.lower().replace("_", "-")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config with laboratory-unit fields "
                                    "(flags override config fields)")
    for name in REFERENCE_PARAMS:
        if name == "filter_shape":
            p.add_argument(_flag(name), dest=name, choices=[shape.value for shape in FilterShape])
        else:
            p.add_argument(_flag(name), dest=name, type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homsim",
        description="Two-photon JSA and Hong-Ou-Mandel dip simulator. "
                    "Precedence: command-line flags > config file > built-in defaults.",
    )
    parser.add_argument("--version", action="version", version=f"homsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jsa", help="sample the joint spectral amplitude on a grid")
    _add_config_flags(p)
    p.add_argument("--n", type=int, default=65, help="grid points per axis")
    p.add_argument("--span", type=float, default=3.0, help="half-width in units of sigma_0")
    p.add_argument("--out", default="jsa_grid.csv")
    p.set_defaults(func=cmd_jsa)

    p = sub.add_parser("dip", help="compute a coincidence-dip curve and its metrics")
    _add_config_flags(p)
    p.add_argument("--engine", default="gaussian",
                   choices=["gaussian", "supergaussian", "general"])
    p.add_argument("--filter-mismatch", type=float, default=0.0,
                   help="fractional idler-filter FWHM mismatch m: the idler filter "
                        "gets FWHM filter_fwhm_nm * (1 + m)")
    p.add_argument("--delay-min", type=float, default=-15.0)
    p.add_argument("--delay-max", type=float, default=15.0)
    p.add_argument("--delay-step", type=float, default=0.1)
    p.add_argument("--out", default="dip_curve.csv")
    p.set_defaults(func=cmd_dip)

    p = sub.add_parser("fit", help="least-squares fit to coincidence data")
    _add_config_flags(p)
    p.add_argument("--data", required=True, help="CSV with delay_ps,counts[,uncertainty]")
    p.add_argument("--mode", default="gaussian-dip", choices=["gaussian-dip", "model"])
    p.add_argument("--engine", choices=["gaussian", "supergaussian", "general"],
                   help="model mode only (default gaussian)")
    p.add_argument("--out", default="fit_result.json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("overlap", help="spatial-mode overlap and its inverse problem")
    p.add_argument("--target", type=float, help="overlap in (0,1) to solve the angle for")
    p.add_argument("--theta-urad", type=float, help="evaluate the overlap at this angle")
    p.add_argument("--d-mm", type=float, default=5.0)
    p.add_argument("--lambda-nm", type=float, default=1550.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_overlap)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AccuracyError, AnalysisError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
