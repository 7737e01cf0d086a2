"""Hong-Ou-Mandel coincidence-rate engines and dip metrics.

With F = Q times the arm filters, the normalized coincidence rate is
R(dt) = 1 - Re sum F(s,i) F*(i,s) e^{-i(ni-ns)dt} / sum |F(s,i)|^2.  The delay
enters only through the last factor, so each engine caches its tables per
configuration and maps a whole array of delays to rates in one call:

* ``general``       -- spectral double sum on a Gauss-Legendre (ns, ni) grid,
                       any filter shape, Q from the factored kernel of
                       :mod:`homsim.jsa`.  Symmetric nodes and real cross
                       weights leave two real half-grid forms per delay, and
                       n/2 phasors, by angle addition on a uniform axis.
* ``asymmetric``    -- ``general`` with the signal and idler filters given
                       explicitly (required here, accepted by every engine).
* ``supergaussian`` -- the same path for identical quartic filters on both
                       arms, at ``settings.gl_order`` nodes per axis.
* ``gaussian``      -- the closed form for identical Gaussian filters, as a 1-D
                       integral over the lag D = z1 - z2 of I(D; dt) A(D), with
                       A the autocorrelation of G(z) over the fiber.

Every engine reads both arms from ``cfg.filter`` and its ``idler`` override;
a filter pair passed to :func:`dip_curve` or :func:`rate_asymmetric` is
folded into the configuration first.  Delays run in chunks of bounded size.
Rates are normalized to a large-delay baseline of 1; the sign of each, the
spectral tables' rounding bound and the closed form's error estimate are
checked against the absolute tolerance before clamping at zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .jsa import _Z_ORDER, _chunks, _g_function, _q_factored, _write_csv
from .quadrature import (AccuracyError, QuadratureSettings, _brentq, _CubicSpline,
                         gauss_legendre)
from .units import ExperimentConfig, FilterShape, FilterSpec

__all__ = [
    "AnalysisError",
    "DipCurve",
    "DipMetrics",
    "filter_amplitude",
    "rate_general",
    "rate_gaussian_closed",
    "rate_supergaussian",
    "rate_asymmetric",
    "dip_curve",
    "dip_metrics",
    "write_curve_csv",
    "metrics_to_json",
]

_DEFAULT_NU_ORDER = 96   # Gauss-Legendre points per frequency axis (general engine)
_BASELINE_FRACTION = 0.1
_ROUNDING_FACTOR = 10.0  # c of the closed engine's tolerance abs_tol + c kappa eps


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


def _nu_halfwidth(spec: FilterSpec, cfg: ExperimentConfig, trunc: float) -> float:
    """Truncation half-width covering both the filter and pump supports."""
    if spec.shape is FilterShape.SUPERGAUSSIAN4:
        # quartic tails die much faster; trunc/2.4 sigma already reaches e^-150
        scale = cfg.sigma_sg_for(spec) / 2.4
    else:  # Gaussian, or the Gaussian stage of a cascade
        scale = cfg.sigma_for(spec)
    return trunc * max(scale, cfg.sigma_p_rad_per_ps / 3.0)


def _check_oscillation_bound(cfg: ExperimentConfig, nu_half: float, order: int) -> int:
    """Cap the per-axis order against the dispersion-phase oscillation scale.

    The phase exp(-i (beta2/4)(ns-ni)^2 (z1-z2)) accumulates at most
    beta2 * L * (2 nu_half)^2 / 4 radians across the box; the rule needs a
    few points per cycle.  Returns a (possibly raised) order.
    """
    cycles = abs(cfg.fiber.beta2_ps2_per_m) * cfg.fiber.length_m * (2.0 * nu_half) ** 2 / 4.0 / (2.0 * math.pi)
    needed = int(math.ceil(8.0 * max(cycles, 1.0)))
    if needed > max(order, 2048):
        raise AccuracyError(f"dispersion phase oscillates over {cycles:.1f} cycles; "
                            "fixed-order rule infeasible")
    return max(order, needed)


def _require_matched(cfg: ExperimentConfig, shape: FilterShape, label: str) -> None:
    if cfg.filter.shape is not shape or cfg.filter.idler is not None:
        raise ValueError(f"{label} requires identical {shape.value} filters on both arms")


def _cross_weights(cfg: ExperimentConfig, nu_order: int, trunc: float):
    """Node vector nu, cross weights C = F(s,i) F*(i,s) w_s w_i, and sum |F|^2 w_s w_i,
    with the signal arm filtered by ``cfg.filter`` and the idler by its override."""
    signal, idler = cfg.filter, cfg.filter.idler or cfg.filter
    half = max(_nu_halfwidth(signal, cfg, trunc), _nu_halfwidth(idler, cfg, trunc))
    nu_order = _check_oscillation_bound(cfg, half, nu_order)
    nu, w = gauss_legendre(nu_order, -half, half)
    f_mat = (_q_factored(nu[:, None] + nu[None, :], (nu[:, None] - nu[None, :]) ** 2, cfg)
             * np.outer(filter_amplitude(signal, nu, cfg), filter_amplitude(idler, nu, cfg)))
    w2 = np.outer(w, w)
    return nu, f_mat * np.conj(f_mat.T) * w2, float(np.sum(np.abs(f_mat) ** 2 * w2))


@lru_cache(maxsize=16)
def _spectral_tables(cfg: ExperimentConfig, nu_order: int, trunc: float):
    """Nodes nu <= 0, real symmetric forms rc, rs, baseline and a rounding bound.  As
    nu[n-1-k] = -nu[k], Re sum C[s,i] e^{-i(ni-ns)dt} = c rc c^T + s rs s^T + 2 c X s^T,
    c, s = cos, sin nu dt on nu <= 0 and rc, rs, X the Hermitian part of C folded there.
    C is real in exact arithmetic (Q is exchange symmetric, the filters real), so X is
    dropped, and bound = 1/2 sum |C - C^H| + 2 sum |X| covers Im and X at every delay."""
    nu, cross, baseline = _cross_weights(cfg, nu_order, trunc)
    h = (nu.size + 1) // 2

    def fold(a, row, col):  # node n-1-k added to (1) or taken from (-1) node k < h
        a = a[:h] + row * a[::-1][:h]
        return a[:, :h] + col * a[:, ::-1][:, :h]
    half = np.where(nu == 0.0, 0.5, 1.0)  # the middle node of odd n is its own mirror
    herm = 0.5 * (cross + np.conj(cross.T)) * np.outer(half, half)
    rc, rs = (np.where(np.abs(f) < 1e-300, 0.0, f)  # subnormal tails only slow BLAS
              for f in (fold(herm.real, 1, 1), fold(herm.real, -1, -1)))
    bound = (0.5 * float(np.sum(np.abs(cross - np.conj(cross.T))))
             + 2.0 * float(np.sum(np.abs(fold(herm.imag, 1, -1)))))
    return nu[:h], rc, rs, baseline, bound


def _phasors(delays: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """e^{i nu dt} for every delay (rows) and node.  Within 1e-5 rad of an axis dt_0 +
    k step, entry k = b B + j (B = ceil(sqrt n)) is the direct e^{i nu (dt_0 + b B step)}
    times e^{i nu j step}, 2 sqrt(n) exponentials in place of n with an error flat in k,
    times 1 - (nu r)^2 / 2 + i nu r (error < 2e-16) for r = dt - (dt_0 + k step)."""
    n = delays.size
    step = (delays[-1] - delays[0]) / max(n - 1, 1)
    resid = delays - (delays[0] + np.arange(n) * step)
    if not np.max(np.abs(resid)) * np.max(np.abs(nu)) <= 1e-5:  # also NaN: direct
        return np.exp(1j * np.multiply.outer(delays, nu))
    b = math.ceil(math.sqrt(n))
    coarse = np.exp(1j * np.multiply.outer(delays[0] + np.arange(0, n, b) * step, nu))
    fine = np.exp(1j * np.multiply.outer(np.arange(b) * step, nu))
    out = (coarse[:, None, :] * fine).reshape(-1, nu.size)[:n]
    x = np.multiply.outer(resid[resid != 0.0], nu)
    out[resid != 0.0] *= 1.0 - 0.5 * x**2 + 1j * x
    return out


def _closed_orders(cfg: ExperimentConfig) -> tuple[int, int]:
    """Orders of the closed rule and its embedded coarser rule: 4 and 3 nodes per cycle
    of G's phase (2 gamma Pp - beta2 Delta^2 / 4) z, at least _Z_ORDER and 3/4 of it."""
    b2_term = 0.25 * cfg.fiber.beta2_ps2_per_m * cfg.Delta_rad_per_ps**2
    cycles = abs(2.0 * cfg.fiber.gamma_per_W_m * cfg.pumps.peak_power_W - b2_term) \
        * cfg.fiber.length_m / (2.0 * math.pi)
    if cycles > 256:
        raise AccuracyError(f"G(z) turns {cycles:.0f} cycles over the fiber: too many to resolve")
    n = max(_Z_ORDER // 4, math.ceil(cycles))
    return 4 * n, 3 * n


@lru_cache(maxsize=32)
def _lag_tables(cfg: ExperimentConfig, order: int):
    """Weights k = w I(D; 0) A(D), A(D) = int_{-L}^{-D} G(z + D) G*(z) dz, and delay
    exponents a(D) at ``order`` lags D in [0, L] (and as many inner nodes), and
    the baseline 2 Re sum k.  I's constant prefactor cancels in the rates."""
    length = cfg.fiber.length_m
    lag, lw = gauss_legendre(order, 0.0, length)
    t, tw = gauss_legendre(order, 0.0, 1.0)
    span = length - lag
    z = np.outer(span, t) - length
    area = (_g_function(z + lag[:, None], cfg) * np.conj(_g_function(z, cfg))) @ tw * span
    s0, b2 = cfg.sigma_0_rad_per_ps, cfg.fiber.beta2_ps2_per_m
    den4 = 4.0 + b2**2 * lag**2 * s0**4
    k = lw * area * np.exp(0.5j * np.arctan(-0.5 * b2 * lag * s0**2)) / den4**0.25
    return k, (-2.0 * s0**2 + 1j * b2 * lag * s0**4) / den4, 2.0 * float(np.sum(k.real))


def _clamped(rates: np.ndarray, abs_tol: float, label: str) -> np.ndarray:
    if np.any(rates < -abs_tol):
        raise AccuracyError(f"{label}: negative rate {np.min(rates):.3e}")
    return np.maximum(rates, 0.0)


def _spectral_rates(delays: np.ndarray, cfg: ExperimentConfig, nu_order: int,
                    settings: QuadratureSettings, label: str) -> np.ndarray:
    nu, rc, rs, baseline, bound = _spectral_tables(cfg, nu_order, settings.trunc_sigmas)
    if bound > settings.abs_tol * max(abs(baseline), 1.0):
        raise AccuracyError(f"{label}: imaginary-part bound {bound:.3e} exceeds tolerance")
    num = np.empty(delays.size)
    for sl in _chunks(delays.size, 2 * nu.size):
        e = _phasors(delays[sl], nu)
        num[sl] = (baseline - np.einsum("ij,ij->i", e.real, e.real @ rc)
                   - np.einsum("ij,ij->i", e.imag, e.imag @ rs))
    return _clamped(num / baseline, settings.abs_tol, label)


def _closed_rates(delays: np.ndarray, cfg: ExperimentConfig,
                  settings: QuadratureSettings) -> np.ndarray:
    label = "gaussian closed-form engine"
    tables = [_lag_tables(cfg, order) for order in _closed_orders(cfg)]
    rates = np.empty((2, delays.size))
    for sl in _chunks(delays.size, tables[0][0].size):
        t2 = delays[sl, None] ** 2
        for row, (k, a, baseline) in zip(rates, tables):
            # 2 Re sum k (1 - e^{t2 a}): the lags -D add the complex conjugate
            decay, phase = np.exp(t2 * a.real), t2 * a.imag
            row[sl] = 2.0 * ((1.0 - decay * np.cos(phase)) @ k.real
                             + (decay * np.sin(phase)) @ k.imag) / baseline
    # the coarse rule's deviation, against abs_tol plus the rounding floor of a
    # sum whose terms cancel by kappa = sum |terms| / |baseline|
    k, _, baseline = tables[0]
    kappa = 2.0 * float(np.sum(np.abs(k))) / abs(baseline)
    estimate = float(np.max(np.abs(rates[0] - rates[1]), initial=0.0))
    if estimate > settings.abs_tol + _ROUNDING_FACTOR * kappa * np.finfo(float).eps:
        raise AccuracyError(f"{label}: error estimate {estimate:.3e} exceeds tolerance "
                            f"(kappa = {kappa:.3e})")
    return _clamped(rates[0], settings.abs_tol, label)


def _rates(cfg: ExperimentConfig, engine: str, delays: np.ndarray,
           settings: QuadratureSettings | None = None,
           signal_filter: FilterSpec | None = None,
           idler_filter: FilterSpec | None = None) -> np.ndarray:
    """Rates of ``engine`` at every delay: the one entry point of the engines.

    Explicit filters, given as a pair, replace the arms of ``cfg`` for every
    engine; ``asymmetric`` is ``general`` with the pair required.  The
    ``gaussian`` and ``supergaussian`` engines reject any arms other than
    identical Gaussian or quartic filters.
    """
    settings = settings or QuadratureSettings()
    if signal_filter is not None or idler_filter is not None or engine == "asymmetric":
        if signal_filter is None or idler_filter is None:
            raise ValueError(f"{engine} engine needs both explicit signal and idler filters")
        signal = replace(signal_filter, idler=None)
        cfg = replace(cfg, filter=replace(signal, idler=None if idler_filter == signal
                                          else idler_filter))
    if engine == "gaussian":
        _require_matched(cfg, FilterShape.GAUSSIAN, "closed-form engine")
        return _closed_rates(delays, cfg, settings)
    if engine == "supergaussian":
        _require_matched(cfg, FilterShape.SUPERGAUSSIAN4, "super-gaussian engine")
        return _spectral_rates(delays, cfg, settings.gl_order, settings, "super-gaussian engine")
    if engine not in ("general", "asymmetric"):
        raise ValueError(f"unknown engine {engine!r}; choose from "
                         "['asymmetric', 'gaussian', 'general', 'supergaussian']")
    return _spectral_rates(delays, cfg, _DEFAULT_NU_ORDER, settings, "asymmetric/general engine")


def rate_general(delta_tau: float, cfg: ExperimentConfig,
                 settings: QuadratureSettings | None = None) -> float:
    """Normalized rate from the spectral integral for any filter shape; the arms
    use ``cfg.filter`` and its idler override, if any (then it is asymmetric)."""
    return float(_rates(cfg, "general", np.array([delta_tau], dtype=float), settings)[0])


def rate_asymmetric(delta_tau: float, cfg: ExperimentConfig,
                    signal_filter: FilterSpec, idler_filter: FilterSpec,
                    settings: QuadratureSettings | None = None) -> float:
    """Normalized rate of the ``general`` engine with the arms of ``cfg`` replaced
    by ``signal_filter`` and ``idler_filter`` (identical or not)."""
    return float(_rates(cfg, "asymmetric", np.array([delta_tau], dtype=float), settings,
                        signal_filter, idler_filter)[0])


def rate_gaussian_closed(delta_tau: float, cfg: ExperimentConfig,
                         settings: QuadratureSettings | None = None) -> float:
    """Normalized rate from the Gaussian-filter closed form (lag integral)."""
    return float(_rates(cfg, "gaussian", np.array([delta_tau], dtype=float), settings)[0])


def rate_supergaussian(delta_tau: float, cfg: ExperimentConfig,
                       settings: QuadratureSettings | None = None) -> float:
    """Normalized rate for identical quartic filters on both arms (any other
    filter configuration is rejected): the spectral path at ``settings.gl_order``."""
    return float(_rates(cfg, "supergaussian", np.array([delta_tau], dtype=float),
                        settings)[0])


@dataclass(frozen=True)
class DipCurve:
    """Sampled coincidence rate versus delay, baseline-normalized."""

    delays_ps: np.ndarray
    rates: np.ndarray
    engine: str

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
    """Sample an engine over a delay axis (default 0.1 ps steps on [-15, 15])."""
    if delays_ps is None:
        delays_ps = np.round(np.arange(-150, 151) * 0.1, 10)
    delays_ps = np.asarray(delays_ps, dtype=float)
    rates = _rates(cfg, engine, delays_ps, settings, signal_filter, idler_filter)
    return DipCurve(delays_ps=delays_ps, rates=rates, engine=engine)


def dip_metrics(curve: DipCurve) -> DipMetrics:
    """Visibility, FWHM and center of a sampled dip.

    Baseline is the mean of the outermost 10% of samples on each side; the
    half-depth crossings are located by Brent's method on a cubic interpolation
    of the curve.
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

    def crossings(side: int) -> list[float]:
        xs = []
        idx = range(imin, n - 1) if side > 0 else range(imin, 0, -1)
        for i in idx:
            j = i + 1 if side > 0 else i - 1
            a, b = curve.rates[i] - half_level, curve.rates[j] - half_level
            if a == 0.0:
                xs.append(float(curve.delays_ps[i]))
            elif a * b < 0:
                left, right = sorted((curve.delays_ps[i], curve.delays_ps[j]))
                xs.append(_brentq(lambda x: spline(x) - half_level, left, right))
        return xs

    right = crossings(+1)
    left = crossings(-1)
    if not right or not left:
        raise AnalysisError("half-depth level not bracketed on both flanks")
    # with non-monotone flanks report the widest crossing pair
    fwhm = max(right) - min(left)
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
