"""Hong-Ou-Mandel coincidence-rate engines and dip metrics.

With F = Q times the arm filters, the normalized coincidence rate is
R(dt) = 1 - Re sum F(s,i) F*(i,s) e^{-i(ni-ns)dt} / sum |F(s,i)|^2.  The delay
enters only through the last factor, so each engine caches its tables per
configuration and maps a whole array of delays to rates in one call:

* ``general``       -- spectral double sum on a uniform (ns, ni) trapezoid grid
                       over a 6-sigma box, any filter shape, Q from the kernel of
                       :mod:`homsim.jsa`: one cosine series in (ni - ns) dt, its
                       order doubled from ``settings.gl_order`` (default 96) until
                       the nested rule on the even nodes agrees.
* ``asymmetric``    -- ``general`` with the signal and idler filters given
                       explicitly (required here, accepted by every engine).
* ``supergaussian`` -- ``general``, for identical quartic filters on both arms only.
* ``gaussian``      -- the closed form for identical Gaussian filters, as a 1-D
                       integral over the lag D = z1 - z2 of I(D; dt) A(D), with
                       A the autocorrelation of G(z) over the fiber, its
                       Gauss-Legendre lags doubled from 4 per cycle of G's phase.

Every engine reads both arms from ``cfg.filter`` and its ``idler`` override;
a filter pair passed to :func:`dip_curve` is folded into the configuration
first.  Delays run in chunks of bounded size.  Rates are normalized to a
large-delay baseline of 1.  Every engine doubles its order until an embedded
error estimate meets abs_tol + 10 kappa eps (kappa: the cancellation of its
sum), and checks each rate's sign against abs_tol before clamping at zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .jsa import _chunks, _g_function, _h_values, _write_csv
from .quadrature import (AccuracyError, QuadratureSettings, _brentq, _CubicSpline,
                         gauss_legendre)
from .units import ExperimentConfig, FilterShape, FilterSpec

__all__ = [
    "AnalysisError",
    "DipCurve",
    "DipMetrics",
    "filter_amplitude",
    "dip_curve",
    "dip_metrics",
    "write_curve_csv",
    "metrics_to_json",
]

_NU_BOX_SIGMAS = 6.0     # half-width of the spectral engines' nu box, in filter sigmas
_MAX_NU_ORDER = 2048     # largest order the spectral engines' search tries
_MAX_LAG_ORDER = 1024    # largest lag order the closed engine's search tries
_BASELINE_FRACTION = 0.1
_ROUNDING_FACTOR = 10.0  # c of the engines' error tolerance abs_tol + c kappa eps
_FLOOR_FACTOR = 100.0    # an estimate that stalls within this factor of c kappa eps is rounding


class AnalysisError(RuntimeError):
    """Curve analysis failed (no dip bracketed, flat data, ...)."""


def filter_amplitude(spec: FilterSpec, nu, cfg: ExperimentConfig):
    """Amplitude transmission of a filter at detuning nu (rad/ps)."""
    nu = np.asarray(nu, dtype=float)
    if spec.shape is FilterShape.SUPERGAUSSIAN4:
        return np.exp(-(nu**4) / cfg.sigma_sg_for(spec)**4)
    gauss = np.exp(-(nu**2) / (2.0 * cfg.sigma_for(spec)**2))
    if spec.shape is FilterShape.GAUSSIAN:
        return gauss
    # cascade: Gaussian stage times quartic stage, each at its own FWHM
    return gauss * np.exp(-(nu**4) / cfg.sigma_sg_for(spec)**4)


def _nu_halfwidth(spec: FilterSpec, cfg: ExperimentConfig) -> float:
    """Truncation half-width covering both the filter and pump supports."""
    if spec.shape is FilterShape.SUPERGAUSSIAN4:
        # quartic tails die much faster; 6/2.4 sigma already reaches e^-150
        scale = cfg.sigma_sg_for(spec) / 2.4
    else:  # Gaussian, or the Gaussian stage of a cascade
        scale = cfg.sigma_for(spec)
    return _NU_BOX_SIGMAS * max(scale, cfg.sigma_p_rad_per_ps / 3.0)


def _require_matched(cfg: ExperimentConfig, shape: FilterShape, label: str) -> None:
    if cfg.filter.shape is not shape or cfg.filter.idler is not None:
        raise ValueError(f"{label} requires identical {shape.value} filters on both arms")


@lru_cache(maxsize=32)
def _spectral_tables(cfg: ExperimentConfig, n: int):
    """Cosine series of the rates on the endpoint trapezoid rule of n intervals in nu,
    and on its nested rule over the even nodes.  On nu_k = (k - n/2) step the cross
    weights C = F(s,i) F*(i,s) w_s w_i = pump(s + i) |H(((s - i) step)^2)|^2 p_s p_i,
    p = f_s f_i w, are real and symmetric, so R(dt) = 1 - sum_m c_m cos(m step dt),
    c_m the sum of C over |s - i| = m over the baseline sum |F|^2 w_s w_i.  Returns
    step, both rules' c_m laid out for _cosine_sums, and kappa = sum |c_m|."""
    signal, idler = cfg.filter, cfg.filter.idler or cfg.filter
    half = max(_nu_halfwidth(signal, cfg), _nu_halfwidth(idler, cfg))
    step = 2.0 * half / n
    k = np.arange(n + 1)
    fs, fi = (filter_amplitude(spec, (k - n / 2) * step, cfg) for spec in (signal, idler))
    w = np.where((k == 0) | (k == n), 0.5, 1.0)  # step and pi sigma_p^2 cancel

    def window(v):  # [s, m] = v[s + m], 0 past the end
        return np.lib.stride_tricks.sliding_window_view(np.concatenate([v, np.zeros(n)]), n + 1)
    pump = window(np.exp(-((np.arange(2 * n + 1) - n) * step) ** 2
                         / (2.0 * cfg.sigma_p_rad_per_ps**2)))[::2]  # [s, m]: at s + i = 2s + m
    # one-sided diagonal sums D[m] = sum_s pump(2s + m) x_s y_(s+m) of (x, y) = (p, p), and of
    # (v_s, v_i), v = f^2 w, for the baseline of different arms; as the filters and grid are
    # even in nu, the sums below the diagonal equal those above
    p = fs * fi * w
    pairs = [(p, p)] if np.array_equal(fs, fi) else [(p, p), (fs**2 * w, fi**2 * w)]
    diag = np.zeros((len(pairs), 2, n + 1))  # both rules
    for sl in _chunks(n + 1, 4 * (n + 1)):
        even = slice(sl.start % 2, None, 2)  # the nested rule's rows; its weights are
        for d, (x, y) in zip(diag, pairs):  # 2 w, a factor 4 that cancels
            prod = window(y)[sl] * pump[sl]
            d[0] += x[sl] @ prod
            d[1, ::2] += x[sl][even] @ prod[even, ::2]
    sums = diag * np.abs(_h_values((k * step) ** 2, cfg)) ** 2 * np.where(k == 0, 1.0, 2.0)
    coef = sums[0] / sums[-1].sum(1)[:, None]
    coef[np.abs(coef) < 1e-300] = 0.0  # subnormal tails only slow BLAS
    m = math.ceil(math.sqrt(n + 1))  # complex like the phasors: no conversion per call
    packed = np.pad(coef, ((0, 0), (0, -(n + 1) % m))).astype(complex)
    return step, packed.reshape(-1, m).T, float(np.sum(np.abs(coef[0])))


def _cosine_sums(delays: np.ndarray, step: float, coef: np.ndarray) -> np.ndarray:
    """Rates 1 - sum_m c_m cos(m step dt) of both rules (columns) at every delay: with
    m = a M + b, cos(m step dt) = Re e^{i a M step dt} e^{i b step dt}, M + A phasors."""
    m, a = coef.shape[0], coef.shape[1] // 2
    out = np.empty((delays.size, 2))
    for sl in _chunks(delays.size, 2 * a):
        inner = (np.exp(1j * np.multiply.outer(delays[sl], np.arange(m) * step))
                 @ coef).reshape(-1, 2, a)
        outer = np.exp(1j * np.multiply.outer(delays[sl], np.arange(a) * (m * step)))
        out[sl] = 1.0 - np.einsum("ik,ijk->ij", outer, inner).real
    return out


def _closed_order(cfg: ExperimentConfig) -> int:
    """First order of the closed engine's lag rule: 4 nodes per cycle of G's phase
    (2 gamma Pp - beta2 Delta^2 / 4) z, at least 8; its embedded rule has 3 per cycle."""
    b2_term = 0.25 * cfg.fiber.beta2_ps2_per_m * cfg.Delta_rad_per_ps**2
    cycles = abs(2.0 * cfg.fiber.gamma_per_W_m * cfg.pumps.peak_power_W - b2_term) \
        * cfg.fiber.length_m / (2.0 * math.pi)
    if cycles > 256:
        raise AccuracyError(f"G(z) turns {cycles:.0f} cycles over the fiber: too many to resolve")
    return 4 * max(2, math.ceil(cycles))


@lru_cache(maxsize=32)
def _lag_tables(cfg: ExperimentConfig, order: int):
    """Weights k = w I(D; 0) A(D), A(D) = int_{-L}^{-D} G(z + D) G*(z) dz, and delay
    exponents a(D) at ``order`` lags D in [0, L] (and as many inner nodes), and
    the baseline 2 Re sum k.  I's constant prefactor cancels in the rates."""
    length = cfg.fiber.length_m
    lag, lw = gauss_legendre(order, 0.0, length)
    t, tw = gauss_legendre(order, 0.0, 1.0)
    span = length - lag
    area = np.empty(order, dtype=complex)
    for sl in _chunks(order, 4 * order):  # row blocks of the (lag, inner node) grid
        z = np.outer(span[sl], t) - length
        pairs = _g_function(z + lag[sl, None], cfg) * np.conj(_g_function(z, cfg))
        area[sl] = pairs @ tw * span[sl]
    s0, b2 = cfg.sigma_0_rad_per_ps, cfg.fiber.beta2_ps2_per_m
    den4 = 4.0 + b2**2 * lag**2 * s0**4
    k = lw * area * np.exp(0.5j * np.arctan(-0.5 * b2 * lag * s0**2)) / den4**0.25
    return k, (-2.0 * s0**2 + 1j * b2 * lag * s0**4) / den4, 2.0 * float(np.sum(k.real))


def _lag_sums(delays: np.ndarray, tables) -> np.ndarray:
    """Rates 2 Re sum k (1 - e^{dt^2 a}) / baseline of each lag table (columns), per delay."""
    rates = np.empty((delays.size, len(tables)))
    # 8 temporaries of one lag row per delay, each at most 2^14 elements: under glibc's
    # default mmap threshold (128 KB), so they are reused, not mapped and faulted anew
    for sl in _chunks(delays.size, 8 * tables[0][0].size):
        t2 = delays[sl, None] ** 2
        for col, (k, a, baseline) in enumerate(tables):
            decay, phase = np.exp(t2 * a.real), t2 * a.imag
            rates[sl, col] = 2.0 * ((1.0 - decay * np.cos(phase)) @ k.real
                                    + (decay * np.sin(phase)) @ k.imag) / baseline
    return rates


def _searched(delays: np.ndarray, n: int, cap: int, rule, settings: QuadratureSettings,
              label: str, probe: bool = False) -> tuple[np.ndarray, dict]:
    """Rates at the first order n, 2 n, ... <= cap whose estimate |fine - coarse| meets
    abs_tol + c kappa eps at every delay; ``probe`` tries the end and middle ones first, a
    cheap early exit, and the full axis decides.  ``rule(n)`` gives the delays -> [fine,
    coarse] sums, kappa and a record.  An estimate below _FLOOR_FACTOR c kappa eps that a
    doubling does not shrink is rounding: raise."""
    stages = ([delays[[0, delays.size // 2, -1]]] if probe and delays.size else []) + [delays]
    last, failure = None, f"{label}: start order {n} is past the largest"
    while n <= cap:
        sums, kappa, record = rule(n)
        floor = _ROUNDING_FACTOR * kappa * np.finfo(float).eps
        for stage, points in enumerate(stages):
            rates = sums(points)
            estimate = float(np.max(np.abs(rates[:, 0] - rates[:, 1]), initial=0.0))
            if estimate > settings.abs_tol + floor:
                break
        else:
            return _clamped(rates[:, 0], settings.abs_tol, kappa, label), {
                **record, "error_estimate": estimate, "kappa": kappa, "abs_tol": settings.abs_tol}
        failure = f"{label}: error estimate {estimate:.3e} exceeds tolerance (kappa = {kappa:.3e})"
        if last and last[0] == stage and last[1] <= estimate <= _FLOOR_FACTOR * floor:
            raise AccuracyError(f"{failure} and a doubling to {n} did not shrink it: rounding")
        last, n = (stage, estimate), 2 * n
    raise AccuracyError(f"{failure}; no order up to {cap} passes")


def _clamped(rates: np.ndarray, abs_tol: float, kappa: float, label: str) -> np.ndarray:
    if np.any(rates < -abs_tol):
        raise AccuracyError(f"{label}: negative rate {np.min(rates):.3e} beyond abs_tol "
                            f"{abs_tol:.1e} (kappa = {kappa:.3e})")
    return np.maximum(rates, 0.0)


def _spectral_rates(delays: np.ndarray, cfg: ExperimentConfig, settings: QuadratureSettings,
                    label: str) -> tuple[np.ndarray, dict]:
    """Rates of :func:`_searched` from n = gl_order (even) on the trapezoid rule and its nested
    rule on the even nodes, the end and middle delays first as a cheap early exit."""
    def rule(n):
        step, coef, kappa = _spectral_tables(cfg, n)
        return (lambda points: _cosine_sums(points, step, coef)), kappa, {
            "nu_order": n, "nu_halfwidth": step * n / 2}
    n = settings.gl_order
    return _searched(delays, n + n % 2, _MAX_NU_ORDER, rule, settings, label, probe=True)


def _closed_rates(delays: np.ndarray, cfg: ExperimentConfig,
                  settings: QuadratureSettings) -> tuple[np.ndarray, dict]:
    def rule(n):
        tables = [_lag_tables(cfg, n), _lag_tables(cfg, 3 * n // 4)]
        kappa = 2.0 * float(np.sum(np.abs(tables[0][0]))) / abs(tables[0][2])
        return (lambda points: _lag_sums(points, tables)), kappa, {"lag_orders": [n, 3 * n // 4]}
    return _searched(delays, _closed_order(cfg), _MAX_LAG_ORDER, rule, settings,
                     "gaussian closed-form engine")


@dataclass(frozen=True)
class DipCurve:
    """Sampled coincidence rate versus delay, baseline-normalized, and the quadrature run."""

    delays_ps: np.ndarray
    rates: np.ndarray
    engine: str
    quadrature: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (np.all(np.isfinite(self.delays_ps)) and np.all(np.diff(self.delays_ps) > 0)):
            raise ValueError("delays must be finite and strictly increasing")
        if not np.all(np.isfinite(self.rates) & (self.rates >= 0)):
            raise ValueError("rates must be finite and nonnegative")


@dataclass(frozen=True)
class DipMetrics:
    visibility: float
    fwhm_ps: float
    center_ps: float
    baseline: float
    engine: str = ""


def dip_curve(cfg: ExperimentConfig, engine: str = "gaussian",
              delays_ps: np.ndarray | None = None,
              settings: QuadratureSettings | None = None,
              signal_filter: FilterSpec | None = None,
              idler_filter: FilterSpec | None = None) -> DipCurve:
    """Sample an engine over a delay axis (default 0.1 ps steps on [-15, 15]) and record
    the quadrature run; the rate at one delay dt is ``dip_curve(cfg, engine, [dt]).rates[0]``.

    Explicit filters, given as a pair, replace the arms of ``cfg`` for every
    engine; ``asymmetric`` is ``general`` with the pair required.  The
    ``gaussian`` and ``supergaussian`` engines reject any arms other than
    identical Gaussian or quartic filters; past that guard ``supergaussian``
    is ``general``.
    """
    settings = settings or QuadratureSettings()
    if delays_ps is None:
        delays_ps = np.round(np.arange(-150, 151) * 0.1, 10)
    delays_ps = np.asarray(delays_ps, dtype=float)
    if signal_filter is not None or idler_filter is not None or engine == "asymmetric":
        if signal_filter is None or idler_filter is None:
            raise ValueError(f"{engine} engine needs both explicit signal and idler filters")
        signal = replace(signal_filter, idler=None)
        cfg = replace(cfg, filter=replace(signal, idler=None if idler_filter == signal
                                          else idler_filter))
    if engine == "gaussian":
        _require_matched(cfg, FilterShape.GAUSSIAN, "closed-form engine")
        rates, quadrature = _closed_rates(delays_ps, cfg, settings)
    elif engine == "supergaussian":
        _require_matched(cfg, FilterShape.SUPERGAUSSIAN4, "super-gaussian engine")
        rates, quadrature = _spectral_rates(delays_ps, cfg, settings, "super-gaussian engine")
    elif engine in ("general", "asymmetric"):
        rates, quadrature = _spectral_rates(delays_ps, cfg, settings, "asymmetric/general engine")
    else:
        raise ValueError(f"unknown engine {engine!r}; choose from "
                         "['asymmetric', 'gaussian', 'general', 'supergaussian']")
    return DipCurve(delays_ps=delays_ps, rates=rates, engine=engine, quadrature=quadrature)


def _outermost(curve: DipCurve, spline: _CubicSpline, level: float,
               i: np.ndarray, j: np.ndarray) -> float:
    """The crossing of ``level`` by the last sample pair (i, j) of ``curve`` that
    brackets it: sample i if it lies on the level, else Brent's root of ``spline``
    between i and j; infinity if no pair brackets the level."""
    a, b = curve.rates[i] - level, curve.rates[j] - level
    hits = np.flatnonzero((a == 0.0) | (a * b < 0))
    if not hits.size:
        return math.inf
    k = hits[-1]
    if a[k] == 0.0:
        return float(curve.delays_ps[i[k]])
    left, right = sorted((curve.delays_ps[i[k]], curve.delays_ps[j[k]]))
    return _brentq(lambda x: spline(x) - level, left, right)


def dip_metrics(curve: DipCurve) -> DipMetrics:
    """Visibility, FWHM and center of a sampled dip.

    Baseline is the mean of the outermost 10% of samples on each side; the
    outermost half-depth crossing on each flank is located by :func:`_outermost`
    on a cubic interpolation of the curve.
    """
    n = curve.delays_ps.size
    edge = max(int(round(_BASELINE_FRACTION * n / 2)), 1)
    baseline = float(np.mean(np.concatenate([curve.rates[:edge], curve.rates[-edge:]])))
    if baseline <= 0:
        raise AnalysisError("baseline is zero; curve cannot be normalized")

    imin = int(np.argmin(curve.rates))
    rmin = float(curve.rates[imin])
    visibility = 1.0 - rmin / baseline
    if visibility < 1e-9:
        raise AnalysisError("no dip found: curve is flat at the baseline")
    if imin < edge or imin >= n - edge:
        raise AnalysisError("dip minimum lies inside the baseline margin; widen the delay range")

    spline = _CubicSpline(curve.delays_ps, curve.rates)
    # refine the center on the spline around the sampled minimum
    lo = curve.delays_ps[max(imin - 1, 0)]
    hi = curve.delays_ps[min(imin + 1, n - 1)]
    try:
        center = _brentq(lambda x: spline(x, 1), lo, hi)
    except ValueError:
        center = float(curve.delays_ps[imin])
    rmin_ref = float(spline(center))
    half_level = 0.5 * (baseline + rmin_ref)

    # with non-monotone flanks report the widest crossing pair
    right, left = np.arange(imin, n - 1), np.arange(imin, 0, -1)
    fwhm = (_outermost(curve, spline, half_level, right, right + 1)
            - _outermost(curve, spline, half_level, left, left - 1))
    if not math.isfinite(fwhm):
        raise AnalysisError("half-depth level not bracketed on both flanks")
    return DipMetrics(
        visibility=visibility,
        fwhm_ps=fwhm,
        center_ps=center,
        baseline=baseline,
        engine=curve.engine,
    )


def write_curve_csv(curve: DipCurve, path) -> None:
    """Write the curve as CSV rows delay_ps,rate_normalized."""
    _write_csv(path, ["delay_ps", "rate_normalized"], [curve.delays_ps, curve.rates])


def metrics_to_json(metrics: DipMetrics) -> str:
    return json.dumps({
        "visibility": metrics.visibility,
        "fwhm_ps": metrics.fwhm_ps,
        "center_ps": metrics.center_ps,
        "engine": metrics.engine,
    }, indent=2)
