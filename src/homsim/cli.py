"""Command-line front end: reproducible runs with manifests.

Subcommands::

    homsim jsa     --config cfg.json --n 65 --span 3 --out grid.csv
    homsim dip     --engine gaussian --out curve.csv
    homsim fit     --mode gaussian-dip --data counts.csv --out fit.json
    homsim overlap --target 0.943 --d-mm 5 --lambda-nm 1550

Configuration comes from a single JSON document with laboratory-unit field
names; command-line flags override config fields.  Every command writes a
manifest JSON next to its outputs recording the resolved configuration,
engine and settings, so identical manifests reproduce byte-identical output.

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
from .fitdata import (InsufficientDataError, ParseError, fit_gaussian_dip,
                      fit_model, fit_result_to_json, ingest_csv)
from .hom import (AnalysisError, dip_curve, dip_metrics, metrics_to_json,
                  write_curve_csv)
from .imperfections import (SpatialGeometry, solve_angle_for_overlap,
                            spatial_overlap)
from .jsa import jsa_grid, write_grid_csv
from .quadrature import AccuracyError, QuadratureSettings
from .units import REFERENCE_PARAMS, ExperimentConfig, FilterSpec, build_config

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# the reference parameters have command-line flags; the rest are config-only
_CONFIG_FIELDS = set(REFERENCE_PARAMS) | {
    "idler_filter_fwhm_nm", "idler_filter_shape", "fwhm_convention"}


class ConfigError(ValueError):
    pass


def _load_config(path: str | None, overrides: dict[str, Any]) -> ExperimentConfig:
    doc: dict[str, Any] = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        unknown = set(doc) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config fields in {path}: {sorted(unknown)}")
    doc.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return build_config(**{**REFERENCE_PARAMS, **doc})
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None


def _config_doc(cfg: ExperimentConfig) -> dict[str, Any]:
    doc = {
        "length_m": cfg.fiber.length_m,
        "beta2_ps2_per_km": cfg.fiber.beta2_ps2_per_m * 1e3,
        "gamma_per_W_m": cfg.fiber.gamma_per_W_m,
        "lambda_p1_nm": cfg.pumps.lambda_p1_nm,
        "lambda_p2_nm": cfg.pumps.lambda_p2_nm,
        "pump_fwhm_nm": cfg.pumps.fwhm_nm,
        "peak_power_W": cfg.pumps.peak_power_W,
        "filter_shape": cfg.filter.shape.value,
        "filter_fwhm_nm": cfg.filter.fwhm_nm,
        "fwhm_convention": cfg.fwhm_convention.value,
        "derived": {
            "Omega_rad_per_ps": cfg.Omega_rad_per_ps,
            "Delta_rad_per_ps": cfg.Delta_rad_per_ps,
            "sigma_p_rad_per_ps": cfg.sigma_p_rad_per_ps,
            "sigma_0_rad_per_ps": cfg.sigma_0_rad_per_ps,
            "sigma_supergaussian_rad_per_ps": cfg.sigma_sg_rad_per_ps,
        },
    }
    if cfg.filter.idler is not None:
        doc["idler_filter_shape"] = cfg.filter.idler.shape.value
        doc["idler_filter_fwhm_nm"] = cfg.filter.idler.fwhm_nm
    return doc


def _write_manifest(out_path: str, command: str, cfg: ExperimentConfig | None,
                    extra: dict[str, Any], elapsed_s: float) -> str:
    manifest = {
        "tool": "homsim",
        "version": __version__,
        "command": command,
        "wall_clock_s": elapsed_s,
        "outputs": [out_path] if out_path else [],
    }
    if cfg is not None:
        manifest["config"] = _config_doc(cfg)
        # super-Gaussian width calibration: the quartic power transmission
        # exp(-2 nu^4 / sigma^4) reaches 1/2 at half the configured power FWHM
        manifest["supergaussian_calibration"] = "half-power-at-configured-fwhm"
    manifest.update(extra)
    man_path = os.path.splitext(out_path)[0] + ".manifest.json" if out_path else f"{command}.manifest.json"
    with open(man_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return man_path


def _cfg_overrides(args) -> dict[str, Any]:
    return {k: getattr(args, k, None) for k in REFERENCE_PARAMS}


def cmd_jsa(args) -> int:
    t0 = time.perf_counter()
    cfg = _load_config(args.config, _cfg_overrides(args))
    grid = jsa_grid(cfg, n_points=args.n, span=args.span)
    try:
        write_grid_csv(grid, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    _write_manifest(args.out, "jsa", cfg,
                    {"grid": {"n_points": args.n, "span_sigma0": args.span}},
                    time.perf_counter() - t0)
    print(f"wrote {args.n * args.n} grid samples to {args.out}")
    return EXIT_OK


def cmd_dip(args) -> int:
    t0 = time.perf_counter()
    cfg = _load_config(args.config, _cfg_overrides(args))
    delays = np.round(np.arange(
        0, int(round((args.delay_max - args.delay_min) / args.delay_step)) + 1
    ) * args.delay_step + args.delay_min, 12)
    settings = QuadratureSettings()
    if args.filter_mismatch:
        if args.engine != "general":
            raise ConfigError("--filter-mismatch requires --engine general")
        signal = FilterSpec(shape=cfg.filter.shape, fwhm_nm=cfg.filter.fwhm_nm)
        idler = FilterSpec(shape=cfg.filter.shape,
                           fwhm_nm=cfg.filter.fwhm_nm * (1.0 + args.filter_mismatch))
        curve = dip_curve(cfg, engine="asymmetric", delays_ps=delays, settings=settings,
                          signal_filter=signal, idler_filter=idler)
    else:
        curve = dip_curve(cfg, engine=args.engine, delays_ps=delays, settings=settings)
    metrics = dip_metrics(curve)
    try:
        write_curve_csv(curve, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    _write_manifest(args.out, "dip", cfg, {
        "engine": args.engine,
        "filter_mismatch": args.filter_mismatch,
        "delay_range_ps": [args.delay_min, args.delay_max, args.delay_step],
        "quadrature": {"rel_tol": settings.rel_tol, "abs_tol": settings.abs_tol,
                       "gl_order": settings.gl_order,
                       "trunc_sigmas": settings.trunc_sigmas},
    }, time.perf_counter() - t0)
    print(metrics_to_json(metrics))
    return EXIT_OK


def cmd_fit(args) -> int:
    t0 = time.perf_counter()
    if not os.path.exists(args.data):
        print(f"error: data file not found: {args.data}", file=sys.stderr)
        return EXIT_IO
    data = ingest_csv(args.data)
    cfg = None
    if args.mode == "gaussian-dip":
        result = fit_gaussian_dip(data)
    else:
        cfg = _load_config(args.config, _cfg_overrides(args))
        result = fit_model(data, cfg, engine=args.engine)
    dense = np.linspace(data.delays_ps[0], data.delays_ps[-1], 501)
    if args.mode == "gaussian-dip":
        p = result.params
        fitted = p["baseline"] * (1.0 - p["visibility"]
                                  * np.exp(-((dense - p["center_ps"]) ** 2) / (2.0 * p["width_ps"] ** 2)))
    else:
        fitted = None
    payload = fit_result_to_json(result, dense_curve=(dense, fitted) if fitted is not None else None)
    try:
        with open(args.out, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    _write_manifest(args.out, "fit", cfg, {
        "mode": args.mode, "engine": args.engine, "data": args.data,
    }, time.perf_counter() - t0)
    print(json.dumps({"visibility": result.params.get("visibility", result.params.get("scale")),
                      "fwhm_ps": result.params.get("fwhm_ps",
                                                   result.derived_metrics.fwhm_ps
                                                   if result.derived_metrics else None),
                      "converged": result.converged}, indent=2))
    return EXIT_OK


def cmd_overlap(args) -> int:
    t0 = time.perf_counter()
    d = args.d_mm * 1e-3
    lam = args.lambda_nm * 1e-9
    if args.theta_urad is not None:
        theta = args.theta_urad * 1e-6
        overlap = spatial_overlap(SpatialGeometry(d, lam, theta))
        out = {"theta_urad": args.theta_urad, "overlap": overlap}
    elif args.target is not None:
        theta = solve_angle_for_overlap(args.target, d, lam)
        achieved = spatial_overlap(SpatialGeometry(d, lam, theta))
        out = {"target": args.target, "theta_rad": theta,
               "theta_urad": theta * 1e6, "achieved_overlap": achieved}
    else:
        raise ConfigError("overlap: provide either --target or --theta-urad")
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(out, fh, indent=2)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    _write_manifest(args.out or "", "overlap", None, {"result": out, "d_mm": args.d_mm,
                                                      "lambda_nm": args.lambda_nm},
                    time.perf_counter() - t0)
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config with laboratory-unit fields "
                                    "(flags override config fields)")
    p.add_argument("--length-m", dest="length_m", type=float)
    p.add_argument("--beta2-ps2-per-km", dest="beta2_ps2_per_km", type=float)
    p.add_argument("--gamma-per-w-m", dest="gamma_per_W_m", type=float)
    p.add_argument("--lambda-p1-nm", dest="lambda_p1_nm", type=float)
    p.add_argument("--lambda-p2-nm", dest="lambda_p2_nm", type=float)
    p.add_argument("--pump-fwhm-nm", dest="pump_fwhm_nm", type=float)
    p.add_argument("--peak-power-w", dest="peak_power_W", type=float)
    p.add_argument("--filter-shape", dest="filter_shape",
                   choices=["gaussian", "supergaussian4", "cascade"])
    p.add_argument("--filter-fwhm-nm", dest="filter_fwhm_nm", type=float)


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
                   help="fractional idler-filter FWHM mismatch (general engine)")
    p.add_argument("--delay-min", type=float, default=-15.0)
    p.add_argument("--delay-max", type=float, default=15.0)
    p.add_argument("--delay-step", type=float, default=0.1)
    p.add_argument("--out", default="dip_curve.csv")
    p.set_defaults(func=cmd_dip)

    p = sub.add_parser("fit", help="least-squares fit to coincidence data")
    _add_config_flags(p)
    p.add_argument("--data", required=True, help="CSV with delay_ps,counts[,uncertainty]")
    p.add_argument("--mode", default="gaussian-dip", choices=["gaussian-dip", "model"])
    p.add_argument("--engine", default="gaussian",
                   choices=["gaussian", "supergaussian", "general"])
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
    except (ConfigError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
