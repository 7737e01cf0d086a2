"""Least-squares fits to measured coincidence-vs-delay data.

Two fit families:

* :func:`fit_gaussian_dip` -- the phenomenological model
  c(dt) = B [1 - V exp(-(dt - tc)^2 / (2 w^2))] with an analytic Jacobian.
* :func:`fit_model` -- a physics engine curve with nuisance parameters
  (baseline, center, depth scale).  The engine rate is interpolated by a
  spline on a grid symmetric about zero, sized by the scan span and cached per
  (config, engine, half-width); its spacing is halved until a midpoint check
  meets ``_MODEL_TOL``.  Its derivative gives an analytic Jacobian, and the
  half-width of its dip, found once per cached spline, the FWHM.

The optimizer is damped Gauss-Newton with a Levenberg-style schedule:
damping x10 on a rejected step, /10 on an accepted one, starting at 1e-3.
Each fit hands it one ``evaluate(p)`` that returns the residual at p and a
zero-argument callable building the Jacobian at p from the residual's own
intermediates (the Gaussian's exp, the spline's pieces).  The loop calls
``evaluate`` once per trial point and builds the Jacobian only at the start and
at accepted points; the covariance comes from the last one built.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .hom import DipMetrics, _outermost, dip_curve
from .quadrature import _CubicSpline, _slope, _value
from .units import ExperimentConfig

__all__ = [
    "CoincidenceDataset",
    "FitResult",
    "ParseError",
    "InsufficientDataError",
    "ingest_csv",
    "fit_gaussian_dip",
    "fit_model",
    "fit_result_to_json",
]

_TWO_SQRT_2LN2 = 2.0 * math.sqrt(2.0 * math.log(2.0))
_MODEL_TOL = 1e-9         # the model spline's midpoint-check tolerance on R
_MODEL_MAX_KNOTS = 2**15  # largest model spline
_MODEL_HALF_STEP = 5.0    # model half-widths are multiples of this, in ps


class ParseError(ValueError):
    """Malformed input row; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InsufficientDataError(ValueError):
    pass


@dataclass(frozen=True)
class CoincidenceDataset:
    delays_ps: np.ndarray
    counts: np.ndarray
    uncertainties: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.delays_ps.size != self.counts.size:
            raise ValueError("delays and counts must have equal length")
        if self.uncertainties is not None and self.uncertainties.size != self.counts.size:
            raise ValueError("uncertainties length mismatch")
        if self.delays_ps.size < 8:
            raise InsufficientDataError(
                f"need at least 8 points, got {self.delays_ps.size}"
            )
        if not (np.all(np.isfinite(self.delays_ps)) and np.all(np.diff(self.delays_ps) > 0)):
            raise ValueError("delays must be finite and strictly increasing (ingest_csv sorts)")
        if not np.all(np.isfinite(self.counts) & (self.counts >= 0)):
            raise ValueError("counts must be finite and nonnegative")
        if self.uncertainties is not None and not np.all(
                np.isfinite(self.uncertainties) & (self.uncertainties > 0)):
            raise ValueError("uncertainties must be finite and positive")


def _checked_row(raw: str, lineno: int, ncols: Optional[int]) -> Optional[list[float]]:
    """The values of a row that the fast path of :func:`ingest_csv` did not take:
    None for a blank line or a header on line 1, else a checked parse."""
    line = raw.strip()
    if not line:
        return None
    cells = [c.strip() for c in line.split(",")]
    if lineno == 1:
        try:
            [float(c) for c in cells]
        except ValueError:
            return None  # header row
    if len(cells) not in (2, 3):
        raise ParseError(f"expected 2 or 3 columns, got {len(cells)}", lineno)
    if ncols is not None and len(cells) != ncols:
        raise ParseError(f"inconsistent column count {len(cells)} != {ncols}", lineno)
    try:
        return [float(c) for c in cells]
    except ValueError as exc:
        raise ParseError(f"non-numeric cell ({exc})", lineno) from None


def ingest_csv(path) -> CoincidenceDataset:
    """Read delay/count (and optional uncertainty) columns from a CSV file.

    Header row optional; duplicate delays are averaged with a warning;
    output is sorted by delay.  A UTF-8 byte-order mark is skipped.
    """
    values: list[float] = []  # the rows, concatenated
    ncols = None
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            cells = raw.split(",")
            if len(cells) == ncols:
                try:
                    values.extend([float(c) for c in cells])  # float() skips the whitespace
                    continue
                except ValueError:
                    pass
            row = _checked_row(raw, lineno, ncols)
            if row is not None:
                ncols = len(row)
                values.extend(row)

    nrows = len(values) // ncols if ncols else 0
    if nrows < 8:
        raise InsufficientDataError(f"need at least 8 points, got {nrows}")

    columns = np.array(values).reshape(nrows, ncols).T
    order = np.argsort(columns[0], kind="stable")
    d, c = columns[0][order], columns[1][order]
    s = columns[2][order] if ncols == 3 else None

    if np.any(d[1:] == d[:-1]):
        warnings.warn("duplicate delays found; averaging their counts", stacklevel=2)
        uniq, inverse, count = np.unique(d, return_inverse=True, return_counts=True)
        c_avg = np.bincount(inverse, weights=c) / count
        if s is not None:
            # average uncertainties in quadrature over the duplicates
            s = np.sqrt(np.bincount(inverse, weights=s**2)) / count
        d, c = uniq, c_avg
    return CoincidenceDataset(delays_ps=d, counts=c, uncertainties=s)


@dataclass(frozen=True)
class FitResult:
    params: dict[str, float]
    residual_norm: float
    iterations: int
    converged: bool
    derived_metrics: Optional[DipMetrics] = None
    covariance: Optional[np.ndarray] = None
    suspicious: bool = False
    message: str = ""
    dof: int = 1                     # data points minus fitted parameters, at least 1
    std_errors: dict[str, Optional[float]] | None = None  # None where no covariance
    model: Optional[dict] = None     # engine spline record of fit_model


def _std_errors(names, cov: Optional[np.ndarray]) -> dict[str, Optional[float]]:
    """sqrt(diag(cov)) for each name in the fitted order; None without a usable covariance."""
    var = np.full(len(names), np.nan) if cov is None else np.diag(cov)
    return {name: float(math.sqrt(v)) if math.isfinite(v) and v >= 0.0 else None
            for name, v in zip(names, var)}


def _levenberg(evaluate: Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]],
               p0: np.ndarray,
               max_iter: int):
    """Damped Gauss-Newton; the objective never increases across accepted steps.

    ``evaluate(p)`` returns the residual at p and a zero-argument callable that
    builds the Jacobian at p; it is called once per trial point, and the Jacobian
    is built only at the start and at accepted points.
    """
    p = np.array(p0, dtype=float)
    r, jacobian = evaluate(p)
    j = jacobian()
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        g = j.T @ r
        if np.abs(g).max() < 1e-10 * max(1.0, math.sqrt(cost)):
            converged = True
            break
        jtj = j.T @ j
        damping = np.diag(np.maximum(np.diag(jtj), 1e-12))
        accepted = False
        for _ in range(40):
            try:
                step = np.linalg.solve(jtj + lam * damping, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = p + step
            r_new, jacobian = evaluate(p_new)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                if np.abs(step).max() < 1e-12 * (np.abs(p).max() + 1e-12):
                    converged = True
                p, r, cost, j = p_new, r_new, cost_new, jacobian()
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                break
            lam *= 10.0
        if not accepted or converged:
            # a Python bool on every path, so that the result serializes
            converged = converged or not accepted and bool(np.abs(g).max() < 1e-6)
            break

    jtj = j.T @ j  # j is the Jacobian at p, the last accepted point
    try:
        cov = np.linalg.inv(jtj)
        dof = max(r.size - p.size, 1)
        cov = cov * cost / dof
    except np.linalg.LinAlgError:
        cov = None
    return p, cost, it, converged, cov


def _initial_dip_guess(d: np.ndarray, c: np.ndarray):
    n = d.size
    edge = max(int(round(0.2 * n / 2)), 1)
    baseline = float(np.mean(np.concatenate([c[:edge], c[-edge:]])))
    imin = int(np.argmin(c))
    cmin = float(c[imin])
    if baseline <= 0:
        baseline = max(float(np.mean(c)), 1e-12)
    vis = max(1.0 - cmin / baseline, 1e-6)
    center = float(d[imin])
    half_level = baseline - 0.5 * (baseline - cmin)
    below = np.nonzero(c < half_level)[0]
    if below.size >= 2:
        width = (d[below[-1]] - d[below[0]]) / _TWO_SQRT_2LN2
    else:
        width = (d[-1] - d[0]) / 10.0
    return baseline, vis, center, max(width, 1e-3)


def fit_gaussian_dip(data: CoincidenceDataset) -> FitResult:
    """Fit c(dt) = B [1 - V exp(-(dt - tc)^2/(2 w^2))] by damped least squares."""
    d, c = data.delays_ps, data.counts
    wgt = 1.0 / data.uncertainties if data.uncertainties is not None else np.ones_like(c)
    p0 = np.array(_initial_dip_guess(d, c))

    def evaluate(p: np.ndarray):
        b, v, tc, w = p
        dt = d - tc
        e = np.exp(-(dt ** 2) / (2.0 * w**2))
        shape = 1.0 - v * e
        r = (b * shape - c) * wgt

        def jacobian() -> np.ndarray:
            j = np.empty((d.size, 4))
            j[:, 0] = shape
            j[:, 1] = -b * e
            j[:, 2] = -b * v * e * dt / w**2
            j[:, 3] = -b * v * e * dt ** 2 / w**3
            return j * wgt[:, None]
        return r, jacobian

    p, cost, it, converged, cov = _levenberg(evaluate, p0, max_iter=200)
    b, v, tc, w = p
    w = abs(w)
    fwhm = _TWO_SQRT_2LN2 * w
    suspicious = not (0.0 <= v <= 1.05)
    msg = "converged" if converged else "max iterations reached"
    if v < 1e-4:
        msg = "converged-degenerate: no significant dip"
    metrics = DipMetrics(
        visibility=float(v), fwhm_ps=float(fwhm), center_ps=float(tc),
        baseline=float(b), engine="GaussianDipFit",
    )
    errors = _std_errors(("baseline", "visibility", "center_ps", "width_ps"), cov)
    width_error = errors["width_ps"]
    errors["fwhm_ps"] = None if width_error is None else _TWO_SQRT_2LN2 * width_error
    return FitResult(
        params={"baseline": float(b), "visibility": float(v),
                "center_ps": float(tc), "width_ps": float(w), "fwhm_ps": float(fwhm)},
        residual_norm=cost, iterations=it, converged=converged,
        derived_metrics=metrics, covariance=cov, suspicious=suspicious, message=msg,
        dof=max(d.size - p.size, 1), std_errors=errors,
    )


@lru_cache(maxsize=16)
def _model(cfg: ExperimentConfig, engine: str, half: float):
    """Spline of the engine rate R on knots k h, |k h| <= n h, n h >= ``half``, record and w.

    R is even, so the engine runs on [0, n h] and is mirrored.  From h = 1/4 ps
    (coarser by powers of two when the first halving would pass _MODEL_MAX_KNOTS)
    h is halved until the previous spline, checked at its midpoints -- the new odd
    knots -- is within _MODEL_TOL of the engine, or the next halving would pass the
    cap.  Returns the finer spline, a record whose ``model_error`` is that check's
    largest deviation (a bound on the coarser spline's error) and w, the outermost
    crossing of (1 + R(0)) / 2 on [0, n h]; R is least at 0 (cosine weights are >= 0).
    """
    h = 0.25
    while 4 * math.ceil(half / h) + 1 > _MODEL_MAX_KNOTS:
        h *= 2.0
    n = math.ceil(half / h)

    def mirrored(m: int, spacing: float):
        curve = dip_curve(cfg, engine, np.arange(m + 1) * spacing)
        x, y = curve.delays_ps, curve.rates
        return _CubicSpline(np.r_[-x[:0:-1], x], np.r_[y[:0:-1], y]), curve

    spline, _ = mirrored(n, h)
    while True:
        n, h = 2 * n, 0.5 * h
        finer, curve = mirrored(n, h)
        error = float(np.max(np.abs(spline(curve.delays_ps[1::2]) - curve.rates[1::2])))
        if error <= _MODEL_TOL or 4 * n + 1 > _MODEL_MAX_KNOTS:
            i = np.arange(n)
            width = _outermost(curve, finer, 0.5 * (1.0 + curve.rates[0]), i, i + 1)
            return finer, {"half_width_ps": n * h, "knots": 2 * n + 1, "spacing_ps": h,
                           "model_error": error, "model_tol": _MODEL_TOL,
                           "quadrature": curve.quadrature}, width
        spline = finer


def fit_model(data: CoincidenceDataset, cfg: ExperimentConfig,
              engine: str = "gaussian") -> FitResult:
    """Fit an engine-backed curve c(dt) = B [1 - s (1 - R(dt - tc))].

    Physics parameters are fixed by ``cfg``; the baseline B, center tc and
    depth scale s vary.  R comes from a cached spline of the engine (see
    :func:`_model`) over +-half, the scan span plus a pad of a quarter span
    + 2 ps, rounded up to 5 ps, so that every center within the pad of the
    initial guess keeps the data on the grid; its derivative gives an analytic
    Jacobian.  The curve is affine in R, so its FWHM is the model's 2 w (see
    :func:`_model`) if it dips (B > 0, B (1 - s (1 - R(0))) < B) and the scan
    holds tc +- w, else NaN.  The fit is marked suspicious when it leaves the
    model: the center moves more than the pad (R would be extrapolated), s leaves
    [0, 1.05], the scan does not bracket the FWHM, or the spline's estimate exceeds
    ``_MODEL_TOL`` at the knot cap (the grid does not resolve the engine dip).
    ``FitResult.model`` records the spline and the engine's quadrature.
    """
    d, c = data.delays_ps, data.counts
    wgt = 1.0 / data.uncertainties if data.uncertainties is not None else np.ones_like(c)

    b0, v0, tc0, _ = _initial_dip_guess(d, c)
    span = d[-1] - d[0]
    pad = 0.25 * span + 2.0
    half = _MODEL_HALF_STEP * math.ceil((span + pad) / _MODEL_HALF_STEP)
    spline, record, width = _model(cfg, engine, half)

    p0 = np.array([b0, tc0, min(max(v0, 0.05), 1.0)])

    def evaluate(p: np.ndarray):
        b, tc, s = p
        piece = spline._piece(d - tc)
        raw = _value(*piece)
        depth = 1.0 - np.clip(raw, 0.0, None)
        shape = 1.0 - s * depth
        r = (b * shape - c) * wgt

        def jacobian() -> np.ndarray:
            slope = np.where(raw < 0.0, 0.0, _slope(*piece))  # the clip is flat
            return np.column_stack((shape, -b * s * slope, -b * depth)) * wgt[:, None]
        return r, jacobian

    p, cost, it, converged, cov = _levenberg(evaluate, p0, max_iter=100)
    b, tc, s = p

    dips = b > 0.0 and b * (1.0 - s * (1.0 - spline(0.0))) < b
    bracketed = dips and d[0] < tc - width and tc + width < d[-1]
    fwhm = 2.0 * width if bracketed else math.nan
    # engine dips to zero, so the depth scale is the visibility
    metrics = DipMetrics(
        visibility=float(s), fwhm_ps=fwhm, center_ps=float(tc),
        baseline=float(b), engine=engine,
    )
    notes = [("center left the engine grid", abs(tc - tc0) > pad),
             ("depth scale outside [0, 1.05]", not 0.0 <= s <= 1.05),
             ("FWHM not bracketed", not bracketed),
             ("engine dip not resolved by the fit grid", record["model_error"] > _MODEL_TOL)]
    msg = "; ".join(["converged" if converged else "max iterations reached"]
                    + [note for note, hit in notes if hit])
    return FitResult(
        params={"baseline": float(b), "center": float(tc), "scale": float(s)},
        residual_norm=cost, iterations=it, converged=converged,
        derived_metrics=metrics, covariance=cov,
        suspicious=any(hit for _, hit in notes), message=msg,
        dof=max(d.size - p.size, 1), std_errors=_std_errors(("baseline", "center", "scale"), cov),
        model={**record, "quadrature": dict(record["quadrature"])},
    )


def fit_result_to_json(result: FitResult,
                       dense_curve: tuple[np.ndarray, np.ndarray] | None = None) -> str:
    """Serialize a fit result (optionally with a dense fitted curve) to JSON."""
    out: dict = {
        "params": result.params,
        "std_errors": result.std_errors or dict.fromkeys(result.params),
        "residual_norm": result.residual_norm,
        "reduced_chi2": result.residual_norm / result.dof,
        "dof": result.dof,
        "iterations": result.iterations,
        "converged": result.converged,
        "suspicious": result.suspicious,
        "message": result.message,
    }
    if result.model is not None:
        out["model"] = result.model
    if result.derived_metrics is not None:
        m = result.derived_metrics
        out["derived_metrics"] = {
            "visibility": m.visibility,
            "fwhm_ps": m.fwhm_ps if math.isfinite(m.fwhm_ps) else None,  # null: not bracketed
            "center_ps": m.center_ps, "baseline": m.baseline, "engine": m.engine,
        }
    if dense_curve is not None:
        out["curve"] = {
            "delay_ps": [float(x) for x in dense_curve[0]],
            "value": [float(y) for y in dense_curve[1]],
        }
    return json.dumps(out, indent=2, allow_nan=False)
