"""Least-squares fits to measured coincidence-vs-delay data.

Two fit families:

* :func:`fit_gaussian_dip` -- the phenomenological model :func:`gaussian_dip`,
  c(dt) = B [1 - V exp(-(dt - tc)^2 / (2 w^2))], with an analytic Jacobian.
* :func:`fit_model` -- a physics engine curve with nuisance parameters
  (baseline, center, depth scale).  The engine rate is interpolated by a cubic
  Hermite on uniform knots symmetric about zero (error O(h^4) in the spacing h),
  sized by the scan span and cached per (config, engine, half-width); h is
  halved until a midpoint check meets ``_MODEL_TOL``.  Its derivative gives an
  analytic Jacobian; the half-width of the engine's dip, solved once per cached
  model on the engine's own rule, gives the FWHM.

Both run through one :func:`_fit`, given a fit's initial guess, model (values and a
Jacobian builder), notes and derived metrics; it weights the residual and the Jacobian
by 1/sigma only where the data carry uncertainties and builds the :class:`FitResult`.

The optimizer is damped Gauss-Newton with a Levenberg-style schedule: a trial
solves (J^T J + lam D) d = -J^T r, lam D (D = diag J^T J, 1 on a zero column) added
to a copy's diagonal, so the path does not depend on the units; lam starts at 1e-3,
x10 on a rejected step, /10 on an accepted one.  ``evaluate(p)`` runs once per trial
point, the Jacobian only at the start and at accepted points; the covariance comes
from the last one built.

The stop is scale-free (after Moré, "The Levenberg-Marquardt algorithm:
implementation and theory", 1978).  Before the first trial of each iteration is
evaluated, the fit has converged if that step is shorter than ``_TAU`` = 1e-6
standard errors in the covariance metric, dT (J^T J) d * dof <= tau^2 * cost;
such an iteration runs no trial and is not counted in ``iterations``.  Only the
first trial is tested, since damped steps shrink under rejection.  An accepted
step below 1e-12 of the largest |p| also converges, which ends zero-residual
fits.  When no trial of an iteration is accepted, the fit stops there; it has converged
only if the residual is orthogonal to every column of J to within tau (MINPACK's gtol),
else its message says that no step reduced the residual.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .hom import DipMetrics, _rule_metrics, dip_curve, metrics_record
from .units import ExperimentConfig

__all__ = [
    "CoincidenceDataset",
    "FitResult",
    "ParseError",
    "InsufficientDataError",
    "ingest_csv",
    "gaussian_dip",
    "fit_gaussian_dip",
    "fit_model",
    "fit_result_to_json",
]

_TWO_SQRT_2LN2 = 2.0 * math.sqrt(2.0 * math.log(2.0))
_MODEL_TOL = 1e-9         # the model's midpoint-check tolerance on R
_MODEL_MAX_KNOTS = 2**15  # largest model
_MODEL_HALF_STEP = 5.0    # model half-widths are multiples of this, in ps
_TAU = 1e-6               # a fit stops at a step shorter than this many standard errors
_BASELINE_TOL = 0.01      # largest 1 - R at the model's outermost knot


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
        if not (np.isfinite(d := self.delays_ps).all() and (d[1:] > d[:-1]).all()):
            raise ValueError("delays must be finite and strictly increasing (ingest_csv sorts)")
        if not (np.isfinite(self.counts) & (self.counts >= 0)).all():
            raise ValueError("counts must be finite and nonnegative")
        if self.uncertainties is not None and not (
                np.isfinite(self.uncertainties) & (self.uncertainties > 0)).all():
            raise ValueError("uncertainties must be finite and positive")
        largest = float(self.counts.max())
        if largest == 0.0:
            raise InsufficientDataError("need at least one positive count")
        # the residual and the Jacobian's columns scale as the largest count and as 1, each
        # over sigma: their sums of squares must neither overflow nor underflow
        weight = 1.0 if self.uncertainties is None else 1.0 / float(self.uncertainties.min())
        if not (1e-100 <= largest * weight <= 1e100 and 1e-100 <= weight <= 1e100):
            over = "" if weight == 1.0 else " and 1, each over the smallest uncertainty,"
            raise ValueError(f"the largest count{over} must lie within [1e-100, 1e100]")


def _checked_row(raw: str, lineno: int, ncols: Optional[int]) -> Optional[list[float]]:
    """The values of a row on the checked path of :func:`ingest_csv`: None for a
    blank line or a header on line 1, else a checked parse."""
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

    Header row optional; duplicate delays are averaged with a warning; output is
    sorted by delay.  A UTF-8 byte-order mark and blank lines are skipped.  The rows
    after the header go through one ``np.loadtxt`` call, whose cells parse as
    ``float()`` parses them; on a ValueError, no rows or other than 2 or 3 columns,
    :func:`_checked_row` walks the file row by row and names the first bad row.
    """
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        lines = fh.readlines()
    # line 1 is checked as the walk would check it: it raises where the walk raises first;
    # blank lines, which the walk skips, are dropped
    body = lines if lines and _checked_row(lines[0], 1, None) is not None else lines[1:]
    body = [line for line in body if not line.isspace()]
    try:  # an empty body would warn
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2) if body else None
    except ValueError:
        table = None
    if table is None or table.shape[1] not in (2, 3):
        rows, ncols = [], None
        for lineno, raw in enumerate(lines, start=1):
            row = _checked_row(raw, lineno, ncols)
            if row is not None:
                ncols = len(row)
                rows.append(row)
        table = np.array(rows)

    nrows = len(table)
    if nrows < 8:
        raise InsufficientDataError(f"need at least 8 points, got {nrows}")

    columns = table.T
    order = np.argsort(columns[0], kind="stable")
    d, c = columns[0][order], columns[1][order]
    s = columns[2][order] if len(columns) == 3 else None

    duplicates = np.any(d[1:] == d[:-1])
    if duplicates:
        uniq, inverse, count = np.unique(d, return_inverse=True, return_counts=True)
        c_avg = np.bincount(inverse, weights=c) / count
        if s is not None:
            # average uncertainties in quadrature over the duplicates
            s = np.sqrt(np.bincount(inverse, weights=s**2)) / count
        d, c = uniq, c_avg
    data = CoincidenceDataset(delays_ps=d, counts=c, uncertainties=s)
    if duplicates:  # only once the averaged rows are accepted: a failure stays one line
        warnings.warn("duplicate delays found; averaging their counts", stacklevel=2)
    return data


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
    model: Optional[dict] = None     # engine model record of fit_model


_CHI2_NOTE = "reduced chi2 far from 1 for the given uncertainties"
_BASELINE_NOTE = "engine rate does not reach its baseline within the model grid"


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
    dof = max(r.size - p.size, 1)
    lam = 1e-3
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        g = j.T @ r
        jtj = j.T @ j
        diag = jtj.diagonal()
        damping = np.where(diag > 0, diag, 1.0)  # scale-free; only a zero column needs a floor
        minus_g = -g
        accepted = False
        for trial in range(40):
            a = jtj.copy()
            a.flat[::p.size + 1] += lam * damping
            try:
                step = np.linalg.solve(a, minus_g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            # damped steps shrink under rejection, so only the first is a measure of p
            if trial == 0 and dof * float(step @ jtj @ step) <= _TAU * _TAU * cost:
                converged, it = True, it - 1  # no trial ran: not an iteration
                break
            p_new = p + step
            with np.errstate(over="ignore"):  # a trial that overflows costs inf: rejected
                r_new, jacobian = evaluate(p_new)
                cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                if max(map(abs, step.tolist())) < 1e-12 * (max(map(abs, p.tolist())) + 1e-12):
                    converged = True
                p, r, cost, j = p_new, r_new, cost_new, jacobian()
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                break
            lam *= 10.0
        if not accepted or converged:
            # no step accepted: converged only where r is orthogonal to J (gtol);
            # a Python bool on every path, so that the result serializes
            converged = converged or bool(np.all(
                np.abs(g) <= _TAU * math.sqrt(cost) * np.sqrt(diag)))
            break

    jtj = j.T @ j  # j is the Jacobian at p, the last accepted point
    try:
        cov = np.linalg.inv(jtj) * cost / dof
    except np.linalg.LinAlgError:
        cov = None
    return p, cost, it, converged, cov


def _fit(data: CoincidenceDataset, model, p0: np.ndarray, names: tuple[str, ...],
         max_iter: int, finish) -> FitResult:
    """Fit ``model`` to the counts by :func:`_levenberg` and build the :class:`FitResult`.

    ``model(p)`` gives the unweighted model at the delays and a callable building its (n, p)
    Jacobian.  ``finish(params, errors)`` may add derived entries to the fitted values and
    standard errors (None without a usable covariance) keyed by ``names``, and gives the
    fit's (note, hit) pairs and further result fields.  The message is the stop and each
    note that hit, the last one a reduced chi2 more than 5 sqrt(2 / dof) from 1 with
    uncertainties, which the covariance, scaled by it, hides; any hit marks it suspicious.
    """
    c = data.counts
    wgt = None if data.uncertainties is None else 1.0 / data.uncertainties

    def evaluate(p: np.ndarray):
        m, jacobian = model(p)
        r = m - c
        if wgt is None:
            return r, jacobian
        r *= wgt
        return r, lambda: np.multiply(j := jacobian(), wgt[:, None], out=j)

    p, cost, it, converged, cov = _levenberg(evaluate, p0, max_iter=max_iter)
    dof = max(c.size - p.size, 1)
    var = [math.nan] * p.size if cov is None else np.diag(cov).tolist()
    errors = {name: math.sqrt(v) if math.isfinite(v) and v >= 0.0 else None
              for name, v in zip(names, var)}
    params = dict(zip(names, p.tolist()))
    notes, fields = finish(params, errors)
    notes.append((_CHI2_NOTE, wgt is not None
                  and abs(cost / dof - 1.0) > 5.0 * math.sqrt(2.0 / dof)))
    stop = ("converged" if converged else "max iterations reached" if it >= max_iter
            else "no step reduced the residual")  # short of max_iter: a step-less iteration
    return FitResult(params=params, residual_norm=cost, iterations=it, converged=converged,
                     covariance=cov, suspicious=any(hit for _, hit in notes),
                     message="; ".join([stop] + [note for note, hit in notes if hit]),
                     dof=dof, std_errors=errors, **fields)


def _initial_dip_guess(d: np.ndarray, c: np.ndarray):
    n = d.size
    edge = max(int(round(0.2 * n / 2)), 1)
    edges = np.concatenate((c[:edge], c[-edge:]))
    baseline = float(np.add.reduce(edges)) / edges.size  # np.mean's sum and division
    imin = int(c.argmin())
    cmin = float(c[imin])
    if baseline <= 0:
        baseline = max(float(np.mean(c)), 1e-12)
    vis = max(1.0 - cmin / baseline, 1e-6)
    center = float(d[imin])
    half_level = baseline - 0.5 * (baseline - cmin)
    below = (c < half_level).nonzero()[0]
    if below.size >= 2:
        width = (d[below[-1]] - d[below[0]]) / _TWO_SQRT_2LN2
    else:
        width = (d[-1] - d[0]) / 10.0
    return baseline, vis, center, max(width, 1e-3)


def gaussian_dip(delays_ps: np.ndarray, baseline, visibility, center_ps, width_ps):
    """B [1 - V exp(-(t - tc)^2/(2 w^2))] at delays t, and the exp, t - tc and its square."""
    dt = delays_ps - center_ps
    dt2 = dt ** 2
    e = np.exp(-dt2 / (2.0 * width_ps**2))
    return baseline * (1.0 - visibility * e), e, dt, dt2


def fit_gaussian_dip(data: CoincidenceDataset) -> FitResult:
    """Fit c(dt) = B [1 - V exp(-(dt - tc)^2/(2 w^2))] by damped least squares.

    The fit notes, and is marked suspicious, when |V| < 1e-4 (no significant dip) or else V
    leaves [0, 1.05], and when the data carry uncertainties and the reduced chi2 is far
    from 1 (see :func:`_fit`).
    """
    d = data.delays_ps

    def model(p: np.ndarray):
        b, v, tc, w = p.tolist()
        m, e, dt, dt2 = gaussian_dip(d, b, v, tc, w)

        def jacobian() -> np.ndarray:
            j = np.empty((d.size, 4))
            j[:, 0] = 1.0 - v * e
            j[:, 1] = -b * e
            bve = -b * v * e
            j[:, 2] = bve * dt / w**2
            j[:, 3] = bve * dt2 / w**3
            return j
        return m, jacobian

    def finish(params: dict, errors: dict):
        b, v, tc, w = params.values()
        params["width_ps"] = w = abs(w)
        params["fwhm_ps"] = fwhm = _TWO_SQRT_2LN2 * w
        width_error = errors["width_ps"]
        errors["fwhm_ps"] = None if width_error is None else _TWO_SQRT_2LN2 * width_error
        metrics = DipMetrics(visibility=v, fwhm_ps=fwhm, center_ps=tc, baseline=b,
                             engine="GaussianDipFit")
        notes = [("degenerate: no significant dip", abs(v) < 1e-4),
                 ("visibility outside [0, 1.05]", abs(v) >= 1e-4 and not 0.0 <= v <= 1.05)]
        return notes, {"derived_metrics": metrics}

    return _fit(data, model, np.array(_initial_dip_guess(d, data.counts)),
                ("baseline", "visibility", "center_ps", "width_ps"), 200, finish)


def _hermite(h: float, y: np.ndarray):
    """The cubic Hermite interpolant on the knots k h, |k| <= n, of samples y = f(k h),
    |k| <= n + 2: the knots and, per piece, (c0, c1, c2, c3) of c0 t^3 + c1 t^2 + c2 t + c3
    with t the offset from its left knot.  Each knot's slope is the 5-point central
    difference (y[k-2] - 8 y[k-1] + 8 y[k+1] - y[k+2]) / (12 h), exact for a quartic, so
    the interpolant reproduces a cubic and its error falls as h^4."""
    n = (y.size - 5) // 2
    s = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    slope = np.diff(y[2:-2]) / h
    t = (s[:-1] + s[1:] - 2.0 * slope) / h
    return np.arange(-n, n + 1) * h, np.array([t / h, (slope - s[:-1]) / h - t, s[:-1], y[2:-3]])


def _piece(model, xq):
    """Offset t of xq from its piece's left knot, and that piece's coefficients: the one
    knot search that :func:`_value` and :func:`_slope` share.  The end pieces extrapolate."""
    knots, coef = model
    i = knots[1:-1].searchsorted(xq, "right")
    return (xq - knots[i], *coef.take(i, axis=1))


def _value(t, c0, c1, c2, c3):
    """A cubic piece c0 t^3 + c1 t^2 + c2 t + c3 at offset t."""
    return ((c0 * t + c1) * t + c2) * t + c3


def _slope(t, c0, c1, c2, c3):
    """The first derivative of that piece at offset t."""
    return (3.0 * c0 * t + 2.0 * c1) * t + c2


@lru_cache(maxsize=16)
def _model(cfg: ExperimentConfig, engine: str, half: float):
    """Cubic Hermite interpolant (:func:`_hermite`) of the engine rate R on knots k h,
    |k h| <= n h, n h >= ``half``, its record and w.

    R is even, so the engine runs on [0, (n + 2) h] and is mirrored; the two samples
    past n h give the end knots' slopes.  From h = 1/4 ps (coarser by powers of two when
    the first halving would pass _MODEL_MAX_KNOTS) h is halved until the previous
    interpolant, checked at its midpoints -- the new odd knots of [0, n h] -- is within
    _MODEL_TOL of the engine, or the next halving would pass the cap.  Its error falls
    as h^4, so the finer one's is about 1/16 of the check.  Returns the finer
    interpolant, a record whose ``model_error`` is that check's largest deviation (a
    bound on the coarser interpolant's error) and w, the outermost crossing of
    (1 + R(0)) / 2 on the engine's samples (infinite if none), solved on the finer
    curve's engine rule by :func:`homsim.hom._rule_metrics`; R is least at 0 (cosine
    weights are >= 0).
    """
    h = 0.25
    while 4 * math.ceil(half / h) + 1 > _MODEL_MAX_KNOTS:
        h *= 2.0
    n = math.ceil(half / h)

    def mirrored(m: int, spacing: float):
        curve = dip_curve(cfg, engine, np.arange(m + 3) * spacing)
        return _hermite(spacing, np.r_[curve.rates[:0:-1], curve.rates]), curve

    model, _ = mirrored(n, h)
    while True:
        n, h = 2 * n, 0.5 * h
        finer, curve = mirrored(n, h)
        odd = slice(1, n, 2)
        error = float(np.max(np.abs(_value(*_piece(model, curve.delays_ps[odd]))
                                    - curve.rates[odd])))
        if error <= _MODEL_TOL or 4 * n + 1 > _MODEL_MAX_KNOTS:
            width = 0.5 * _rule_metrics(curve, 0).fwhm_ps
            return finer, {"half_width_ps": n * h, "knots": 2 * n + 1, "spacing_ps": h,
                           "model_error": error, "model_tol": _MODEL_TOL,
                           "quadrature": curve.quadrature}, width
        model = finer


def fit_model(data: CoincidenceDataset, cfg: ExperimentConfig,
              engine: str = "gaussian") -> FitResult:
    """Fit an engine-backed curve c(dt) = B [1 - s (1 - R(dt - tc))].

    Physics parameters are fixed by ``cfg``; the baseline B, center tc and
    depth scale s vary.  R comes from a cached interpolant of the engine (see
    :func:`_model`) over +-half, the scan span plus a pad of a quarter span
    + 2 ps, rounded up to 5 ps, so that every center within the pad of the
    initial guess keeps the data on the grid; its derivative gives an analytic
    Jacobian.  The curve is affine in R, so its FWHM is the model's 2 w (see
    :func:`_model`) if it dips (B > 0, B (1 - s (1 - R(0))) < B) and the scan
    holds tc +- w, else NaN.  The fit is marked suspicious when it leaves the
    model: the center moves more than the pad (R would be extrapolated), s leaves
    [0, 1.05], the scan does not bracket the FWHM, the model's estimate exceeds
    ``_MODEL_TOL`` at the knot cap (the grid does not resolve the engine dip), or
    1 - R exceeds ``_BASELINE_TOL`` at the model's outermost knot (the engine rate
    does not reach its baseline, so B is not the baseline); and
    when the data carry uncertainties and the reduced chi2 is far from 1 (see
    :func:`_fit`).
    ``FitResult.model`` records the model and the engine's quadrature.
    """
    d = data.delays_ps
    b0, v0, tc0, _ = _initial_dip_guess(d, data.counts)
    span = d[-1] - d[0]
    pad = 0.25 * span + 2.0
    half = _MODEL_HALF_STEP * math.ceil((span + pad) / _MODEL_HALF_STEP)
    model, record, width = _model(cfg, engine, half)

    def curve(p: np.ndarray):
        b, tc, s = p.tolist()
        piece = _piece(model, d - tc)
        raw = _value(*piece)
        depth = 1.0 - np.clip(raw, 0.0, None)
        shape = 1.0 - s * depth

        def jacobian() -> np.ndarray:
            slope = _slope(*piece)
            slope[raw < 0.0] = 0.0  # the clip is flat
            return np.column_stack((shape, -b * s * slope, -b * depth))
        return b * shape, jacobian

    def finish(params: dict, errors: dict):
        b, tc, s = params.values()
        dips = b > 0.0 and b * (1.0 - s * (1.0 - _value(*_piece(model, 0.0)))) < b
        bracketed = dips and d[0] < tc - width and tc + width < d[-1]
        # engine dips to zero, so the depth scale is the visibility
        metrics = DipMetrics(visibility=s, fwhm_ps=2.0 * width if bracketed else math.nan,
                             center_ps=tc, baseline=b, engine=engine)
        notes = [("center left the engine grid", abs(tc - tc0) > pad),
                 ("depth scale outside [0, 1.05]", not 0.0 <= s <= 1.05),
                 ("FWHM not bracketed", not bracketed),
                 ("engine dip not resolved by the fit grid", record["model_error"] > _MODEL_TOL),
                 (_BASELINE_NOTE, 1.0 - model[1][3, 0] > _BASELINE_TOL)]  # coef[3, 0] = R(-n h)
        return notes, {"derived_metrics": metrics,
                       "model": {**record, "quadrature": dict(record["quadrature"])}}

    return _fit(data, curve, np.array([b0, tc0, min(max(v0, 0.05), 1.0)]),
                ("baseline", "center", "scale"), 100, finish)


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
        out["derived_metrics"] = metrics_record(result.derived_metrics)
    if dense_curve is not None:
        out["curve"] = {
            "delay_ps": [float(x) for x in dense_curve[0]],
            "value": [float(y) for y in dense_curve[1]],
        }
    return json.dumps(out, indent=2, allow_nan=False)
