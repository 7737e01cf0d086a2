"""Command-line front end: reproducible runs with manifests.

Subcommands::

    homsim jsa     --config cfg.json --n 65 --span 3 --out grid.csv
    homsim dip     --engine gaussian --out curve.csv
    homsim fit     --mode gaussian-dip --data counts.csv --out fit.json
    homsim overlap --target 0.943 --d-mm 5 --lambda-nm 1550

Configuration comes from a single JSON document with laboratory-unit field
names; command-line flags override config fields, and a negative value may be
written with an exponent (``-1.16e-1``).  Each ``cmd_*`` writes its outputs;
:func:`main` then writes a manifest JSON next to them and prints only after it.
The manifest records the engine, the quadrature that ran, under ``derived`` the
derived quantities in internal units and, under ``config``, the laboratory-unit
parameters exactly as the run passed them to ``build_config``, so feeding that
record back through ``--config`` reproduces byte-identical output.  A ``dip``
manifest also records the ``metrics`` that the command prints, an ``overlap --target``
manifest its ``solver`` (Newton iterations, last step in x and depth residual), and every
one its ``wall_clock_s``, from after argument parsing to the outputs being written.

Exit codes: 0 success, 1 I/O error, 2 configuration error, 3 numerical error;
a failing command writes one stderr line and no manifest or stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from typing import Any

import numpy as np

from . import __version__
from .fitdata import fit_gaussian_dip, fit_model, fit_result_to_json, gaussian_dip, ingest_csv
from .hom import AnalysisError, dip_curve, dip_metrics, metrics_record, write_curve_csv
from .imperfections import (SpatialGeometry, _solve_angle, solve_angle_for_overlap,
                            spatial_overlap)
from .jsa import jsa_grid, write_grid_csv
from .quadrature import AccuracyError
from .units import REFERENCE_PARAMS, ExperimentConfig, FilterShape, build_config

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_ENGINES = ("gaussian", "supergaussian", "general")  # asymmetric: general with a config idler

# the reference parameters have command-line flags; the rest are config-only
_CONFIG_FIELDS = set(REFERENCE_PARAMS) | {"idler_filter_fwhm_nm", "idler_filter_shape"}

# argparse's own pattern misses exponents and -inf, and would take `-1.16e-1` for an option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$", re.I)


def _load_config(args, filter_mismatch: float = 0.0) -> tuple[ExperimentConfig, dict[str, Any]]:
    """The run's configuration and its manifest record: under ``config`` the
    laboratory-unit parameters exactly as passed to ``build_config``, and under
    ``derived`` the derived quantities."""
    params: dict[str, Any] = dict(REFERENCE_PARAMS)
    if args.config is not None:
        if not os.path.exists(args.config):
            raise ValueError(f"config file not found: {args.config}")
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = set(doc) - _CONFIG_FIELDS
        if unknown:
            raise ValueError(f"unknown config fields in {args.config}: {sorted(unknown)}")
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
        raise ValueError(f"invalid configuration: {exc}") from None
    # super-Gaussian width calibration: the quartic power transmission
    # exp(-2 nu^4 / sigma^4) reaches 1/2 at half the configured power FWHM
    return cfg, {"config": params, "supergaussian_calibration": "half-power-at-configured-fwhm",
                 "derived": {
        "Omega_rad_per_ps": cfg.Omega_rad_per_ps,
        "Delta_rad_per_ps": cfg.Delta_rad_per_ps,
        "sigma_p_rad_per_ps": cfg.sigma_p_rad_per_ps,
        "sigma_0_rad_per_ps": cfg.sigma_0_rad_per_ps,
        "sigma_supergaussian_rad_per_ps": cfg.sigma_sg_for(cfg.filter),
    }}


# each cmd_* writes its outputs, then returns (out path, record, manifest fields, stdout)
def cmd_jsa(args):
    cfg, record = _load_config(args)
    try:
        grid = jsa_grid(cfg, n_points=args.n, span=args.span)
    except ValueError as exc:
        raise ValueError(f"--n {args.n} --span {args.span}: {exc}") from None
    write_grid_csv(grid, args.out)
    extra = {"grid": {"n_points": args.n, "span_sigma0": args.span}, "quadrature": grid.quadrature}
    return args.out, record, extra, f"wrote {args.n * args.n} grid samples to {args.out}"


def cmd_dip(args):
    span, step = args.delay_max - args.delay_min, args.delay_step
    # a finite count of finite steps over a positive span (no infinite or NaN bound), with
    # ends within 1e100 ps, so that the rounding to 1e-12 ps below cannot overflow
    if not (span > 0 and step > 0 and math.isfinite(step) and math.isfinite(span / step)
            and abs(args.delay_min) <= 1e100 and abs(args.delay_max) <= 1e100):
        raise ValueError("need finite delays within +-1e100 ps, --delay-step > 0 and "
                         "--delay-max > --delay-min")
    cfg, record = _load_config(args, args.filter_mismatch)
    delays = np.round(np.arange(0, int(round(span / step)) + 1) * step + args.delay_min, 12)
    curve = dip_curve(cfg, engine=args.engine, delays_ps=delays)
    metrics = metrics_record(dip_metrics(curve))
    write_curve_csv(curve, args.out)
    extra = {"engine": args.engine, "filter_mismatch": args.filter_mismatch,
             "delay_range_ps": [args.delay_min, args.delay_max, args.delay_step],
             "quadrature": curve.quadrature, "metrics": metrics}
    return args.out, record, extra, json.dumps(metrics, indent=2)


def cmd_fit(args):
    if args.mode == "gaussian-dip":  # runs no engine, so it takes no engine or config
        given = [_flag(k) for k in ("config", "engine", *REFERENCE_PARAMS)
                 if getattr(args, k) is not None]
        if given:
            raise ValueError(f"--mode gaussian-dip does not take {', '.join(given)}")
    data = ingest_csv(args.data)
    record, dense_curve = {}, None
    extra = {"mode": args.mode, "data": args.data}
    if args.mode == "gaussian-dip":
        result = fit_gaussian_dip(data)
        p = result.params
        dense = np.linspace(data.delays_ps[0], data.delays_ps[-1], 501)
        dense_curve = (dense, gaussian_dip(dense, p["baseline"], p["visibility"],
                                           p["center_ps"], p["width_ps"])[0])
    else:
        cfg, record = _load_config(args)
        engine = args.engine or "gaussian"
        result = fit_model(data, cfg, engine=engine)
        extra.update(engine=engine, model=result.model)
    text = fit_result_to_json(result, dense_curve=dense_curve)  # before the file is opened
    with open(args.out, "w") as fh:
        fh.write(text)
    m = metrics_record(result.derived_metrics)  # as written: an unbracketed FWHM is null
    return args.out, record, extra, json.dumps(
        {"visibility": m["visibility"], "fwhm_ps": m["fwhm_ps"], "converged": result.converged},
        indent=2, allow_nan=False)


def cmd_overlap(args):
    d, lam = args.d_mm * 1e-3, args.lambda_nm * 1e-9
    if (args.target is None) == (args.theta_urad is None):
        raise ValueError("overlap: provide exactly one of --target and --theta-urad")
    extra = {"d_mm": args.d_mm, "lambda_nm": args.lambda_nm}
    if args.theta_urad is not None:
        overlap = spatial_overlap(SpatialGeometry(d, lam, args.theta_urad * 1e-6))
        out = {"theta_urad": args.theta_urad, "overlap": overlap}
    else:
        theta = solve_angle_for_overlap(args.target, d, lam)
        extra["solver"] = dict(_solve_angle(args.target, d, lam)[1])  # that solve, cached
        achieved = spatial_overlap(SpatialGeometry(d, lam, theta))
        out = {"target": args.target, "theta_rad": theta,
               "theta_urad": theta * 1e6, "achieved_overlap": achieved}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=2)
    extra["result"] = out
    return args.out or "", {}, extra, json.dumps(out, indent=2)


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
    p.add_argument("--engine", default="gaussian", choices=_ENGINES)
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
    p.add_argument("--engine", choices=_ENGINES, help="model mode only (default gaussian)")
    p.add_argument("--out", default="fit_result.json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("overlap", help="spatial-mode overlap and its inverse problem")
    p.add_argument("--target", type=float, help="overlap in (0,1) to solve the angle for")
    p.add_argument("--theta-urad", type=float, help="evaluate the overlap at this angle")
    p.add_argument("--d-mm", type=float, default=5.0)
    p.add_argument("--lambda-nm", type=float, default=1550.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_overlap)

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: its outputs, then the manifest, then stdout."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        out_path, record, extra, text = args.func(args)
        manifest = {"tool": "homsim", "version": __version__, "command": args.command,
                    "wall_clock_s": time.perf_counter() - t0,
                    "outputs": [out_path] if out_path else [], **record, **extra}
        stem = os.path.splitext(out_path)[0] if out_path else args.command
        with open(stem + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        print(text)
        return EXIT_OK
    except (AccuracyError, AnalysisError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, MemoryError) as exc:  # MemoryError: an axis too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
