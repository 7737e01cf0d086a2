"""Hong-Ou-Mandel coincidence-rate engines and dip metrics.

With F = Q times the arm filters, the normalized coincidence rate is
R(dt) = 1 - Re sum F(s,i) F*(i,s) e^{-i(ni-ns)dt} / sum |F(s,i)|^2.  The delay
enters only through the last factor, so each engine caches its tables per
configuration and maps a whole array of delays to rates in one call:

* ``general``       -- spectral double sum on a uniform (ns, ni) trapezoid grid
                       over a box of 6 sigma for a Gaussian filter, 6 sigma_sg / 2.4
                       for a quartic one and the tighter of those two stages for a
                       cascade (at least 2 sigma_p), any filter shape, Q from the kernel of
                       :mod:`homsim.jsa`: one cosine series in (ni - ns) dt, its
                       order doubled from ``settings.gl_order`` (default 96) until
                       the series' period covers twice the largest |dt|, on up to
                       2,048 while the nested rule on the even nodes leaves its
                       half-period image or its image of the dip undamped (Gaussian
                       model of the arms and pump, within _ABS_TOL / 2) or puts fewer
                       than 6.6 nodes on sigma_sg of a quartic stage (:func:`_nu_start`,
                       set on sweep seeds 11-30), then until the nested rule agrees.
* ``asymmetric``    -- ``general`` with the signal and idler filters given
                       explicitly (required here, accepted by every engine).
* ``supergaussian`` -- ``general``, for identical quartic filters on both arms only.
* ``gaussian``      -- the closed form for identical Gaussian filters, as a 1-D
                       integral over the lag D = z1 - z2 of I(D; dt) A(D), with
                       A the autocorrelation of G(z) over the fiber, its Gauss-
                       Legendre lags doubled from jsa._nodes_per_cycle of G's phase.

Every engine reads both arms from ``cfg.filter`` and its ``idler`` override, which
:class:`~homsim.units.FilterSpec` drops when it equals the signal filter (matched arms have no
idler); a filter pair passed to :func:`dip_curve` is folded into the configuration first, and
``_ENGINE_SHAPES`` holds the filter shape an engine requires on both arms.  R is even in dt, so
every engine runs once per distinct |dt| of the axis and the rates are exactly even; every rule
runs through ``quadrature._blocked``.  Rates are normalized to a large-delay baseline of 1.
Every engine doubles its order by ``quadrature._searched`` until an embedded error estimate
meets _ABS_TOL = 1e-12 plus 10 kappa eps (kappa: the cancellation of its sum); :func:`dip_curve`
checks every rate's sign against _ABS_TOL and clamps at zero.  The spectral engines' H runs its
own searched z rule, whose order and estimate their record carries.  A search's rule maps delays
to the fine rate, the coarse rate and the fine slope dR/ddt (columns), on which
:func:`dip_metrics` solves the half level by :func:`homsim.quadrature._newton`, or names a
delay step wider than the dip that defeats it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .jsa import _g_cycles, _g_function, _h_values, _nodes_per_cycle, _write_csv
from .quadrature import (_ABS_TOL, _MAX_GL_ORDER, AccuracyError, QuadratureSettings, _blocked,
                         _newton, _searched, gauss_legendre)
from .units import ExperimentConfig, FilterShape, FilterSpec

__all__ = [
    "AnalysisError",
    "DipCurve",
    "DipMetrics",
    "filter_amplitude",
    "dip_curve",
    "dip_metrics",
    "write_curve_csv",
    "metrics_record",
]

_NU_BOX_SIGMAS = 6.0     # half-width of the spectral engines' nu box, in filter sigmas
_MAX_NU_ORDER = 2048     # largest order the spectral engines' search tries
# the nu search's start (_nu_start): Gaussian widths from the axis at which an alias image is
# damped within _ABS_TOL / 2, and nested-rule nodes per sigma_sg of a quartic stage (set on the
# 7,200 param_sweep curves of seeds 11-30, checked on seeds 31-40)
_ALIAS_SIGMAS = math.sqrt(2.0 * math.log(2.0 / _ABS_TOL))
_QUARTIC_NODES = 6.6
_BASELINE_FRACTION = 0.1
# each engine's filter shape, required identical on both arms (None: any arms)
_ENGINE_SHAPES = {"asymmetric": None, "gaussian": FilterShape.GAUSSIAN, "general": None,
                  "supergaussian": FilterShape.SUPERGAUSSIAN4}


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
    """Truncation half-width covering both the filter and pump supports: at its edge a
    Gaussian amplitude is e^-18 (6 sigma) and a quartic one e^-39 (6 sigma_sg / 2.4).  A
    cascade's amplitude is at most either stage's, so the tighter stage sets its box."""
    if spec.shape is FilterShape.GAUSSIAN:
        scale = cfg.sigma_for(spec)
    elif spec.shape is FilterShape.SUPERGAUSSIAN4:
        scale = cfg.sigma_sg_for(spec) / 2.4
    else:  # cascade
        scale = min(cfg.sigma_for(spec), cfg.sigma_sg_for(spec) / 2.4)
    return _NU_BOX_SIGMAS * max(scale, cfg.sigma_p_rad_per_ps / 3.0)


def _nu_half(cfg: ExperimentConfig) -> float:
    """Half-width of the spectral engines' nu box: the wider of the two arms'."""
    return max(_nu_halfwidth(cfg.filter, cfg), _nu_halfwidth(cfg.filter.idler or cfg.filter, cfg))


def _require_axis(delays: np.ndarray) -> None:
    if not (delays.ndim == 1 and np.isfinite(delays).all() and (delays[1:] > delays[:-1]).all()):
        raise ValueError("delays must be finite and strictly increasing, on one axis")


def _require_normalizable(baselines, label: str) -> None:
    """Raise AccuracyError unless every baseline is finite and nonzero: an under-resolved
    one may be negative, but one that under- or overflowed normalizes nothing."""
    if not all(b != 0.0 and math.isfinite(b) for b in baselines):
        raise AccuracyError(f"{label}: baselines {[float(b) for b in baselines]} "
                            "are not finite and nonzero")


@lru_cache(maxsize=32)
def _spectral_tables(cfg: ExperimentConfig, n: int):
    """Cosine series of the rates on the endpoint trapezoid rule of n intervals in nu,
    and on its nested rule over the even nodes.  On nu_k = (k - n/2) step the cross
    weights C = F(s,i) F*(i,s) w_s w_i = pump(s + i) |H(((s - i) step)^2)|^2 p_s p_i,
    p = f_s f_i w, are real and symmetric, so R(dt) = 1 - sum_m c_m cos(m step dt),
    c_m the sum of C over |s - i| = m over the baseline sum |F|^2 w_s w_i, of each rule
    one contraction that builds no temporary.  Returns step, the series of both rules' c_m
    and the fine i c_m m step, kappa = sum |c_m|, H's z record."""
    idler = cfg.filter.idler
    step = 2.0 * _nu_half(cfg) / n
    k = np.arange(n + 1)
    fs = filter_amplitude(cfg.filter, (k - n / 2) * step, cfg)
    fi = fs if idler is None else filter_amplitude(idler, (k - n / 2) * step, cfg)
    w = np.where((k == 0) | (k == n), 0.5, 1.0)  # step and pi sigma_p^2 cancel
    # one-sided diagonal sums D[m] = sum_s pump(2s + m) x_s y_(s+m) of (x, y) = (p, p), and of
    # (v_s, v_i), v = f^2 w, for the baseline of different arms; as the filters and grid are
    # even in nu, the sums below the diagonal equal those above
    p = fs * fi * w
    x, y = ([p], [p]) if idler is None else ([p, fs**2 * w], [p, fi**2 * w])
    # windows [row, s, m] = buffer[row, s + m], 0 past the end, of one zero-padded buffer:
    # row 0 the pump at the 2 n + 1 sums s + i, then each pair's y
    buffer = np.zeros((1 + len(y), 3 * n + 1))
    buffer[0, :2 * n + 1] = np.exp(-((np.arange(2 * n + 1) - n) * step) ** 2
                                   / (2.0 * cfg.sigma_p_rad_per_ps**2))
    buffer[1:, :n + 1] = y
    windows = np.lib.stride_tricks.as_strided(buffer, (buffer.shape[0], 2 * n + 1, n + 1),
                                              (buffer.strides[0],) + 2 * buffer.strides[1:])
    pump, y_windows = windows[0, ::2], windows[1:, :n + 1]  # pump [s, m]: at s + i = 2s + m
    # the nested rule reads the even rows and columns; its weights 2 w, a factor 4 that cancels
    x, diag = np.array(x), np.zeros((len(y), 2, n + 1))
    diag[:, 0] = np.einsum("ps,psm,sm->pm", x, y_windows, pump)
    diag[:, 1, ::2] = np.einsum("ps,psm,sm->pm", x[:, ::2], y_windows[:, ::2, ::2], pump[::2, ::2])
    h, z_record = _h_values((k * step) ** 2, cfg)
    sums = diag * np.abs(h) ** 2 * np.where(k == 0, 1.0, 2.0)
    baselines = sums[-1].sum(1)
    _require_normalizable(baselines, f"spectral engine at nu order {n}")
    # both rules' c_m, then i c_m m step of the fine rule, each laid out m = a M + b in one complex
    # (M, 3 A) block like the phasors e^{i b step dt} and e^{i a M step dt}: no conversion per call
    big = math.ceil(math.sqrt(n + 1))
    packed = np.zeros((3, -(-(n + 1) // big) * big), dtype=complex)
    coef = packed.real[:2, :n + 1]
    np.divide(sums[0], baselines[:, None], out=coef)
    coef[np.abs(coef) < 1e-300] = 0.0  # subnormal tails only slow BLAS
    packed.imag[2, :n + 1] = coef[0] * (k * step)
    series = (1j * step * np.arange(big), 1j * (big * step) * np.arange(packed.shape[1] // big),
              packed.reshape(-1, big).T)
    return step, series, float(np.sum(np.abs(coef[0]))), z_record


def _cosine_sums(delays: np.ndarray, series) -> np.ndarray:
    """Rates 1 - Re sum_m c_m e^{i m step dt} of both rules and the fine rule's slope
    -Re sum_m i c_m m step e^{i m step dt} (columns) at every delay: with m = a M + b,
    e^{i m step dt} = e^{i a M step dt} e^{i b step dt}, M + A phasors."""
    inner_freq, outer_freq, coef = series
    inner = (np.exp(np.multiply.outer(delays, inner_freq)) @ coef).reshape(-1, 3, outer_freq.size)
    sums = np.matmul(inner, np.exp(np.multiply.outer(delays, outer_freq))[:, :, None])
    return np.subtract((1.0, 1.0, 0.0), sums[:, :, 0].real)


@lru_cache(maxsize=32)
def _lag_tables(cfg: ExperimentConfig, order: int):
    """Weights k = w I(D; 0) A(D), A(D) = int_{-L}^{-D} G(z + D) G*(z) dz, and delay
    exponents a(D) at ``order`` lags D in [0, L] (and as many inner nodes), and
    the baseline 2 Re sum k.  I's constant prefactor cancels in the rates."""
    length = cfg.fiber.length_m
    lag, lw = gauss_legendre(order, 0.0, length)
    t, tw = gauss_legendre(order, 0.0, 1.0)

    def area(lags):  # A(D) on rows of the (lag, inner node) grid
        span = length - lags
        z = np.outer(span, t) - length
        return _g_function(z + lags[:, None], cfg) * np.conj(_g_function(z, cfg)) @ tw * span
    s0, b2 = cfg.sigma_0_rad_per_ps, cfg.fiber.beta2_ps2_per_m
    den4 = 4.0 + b2**2 * lag**2 * s0**4
    k = (lw * _blocked(area, lag, 4 * order) * np.exp(0.5j * np.arctan(-0.5 * b2 * lag * s0**2))
         / den4**0.25)
    return k, (-2.0 * s0**2 + 1j * b2 * lag * s0**4) / den4, 2.0 * float(np.sum(k.real))


def _lag_sums(delays: np.ndarray, exponents: np.ndarray, wr, wi) -> np.ndarray:
    """(1 - c) @ wr + s @ wi, c + i s = e^{dt^2 a}, per delay in one pass over the stacked lag
    tables: exponents a and real weight columns 2 k / baseline of the fine and of the coarse
    table, then the fine slope's -4 k a / baseline, whose column becomes dt (sum - column)."""
    t2 = delays[:, None] ** 2
    decay, phase = np.exp(t2 * exponents.real), t2 * exponents.imag
    out = (1.0 - decay * np.cos(phase)) @ wr + (decay * np.sin(phase)) @ wi
    out[:, 2] = delays * (wr[:, 2].sum() - out[:, 2])
    return out


def _dip_sigma(cfg: ExperimentConfig) -> float:
    """The dip's width s_d in nu_s - nu_i: 1 / s_d^2 is the mean of the arms' 1 / sigma^2, each
    arm's Gaussian sigma.  With Gaussian arms R = 1 - V e^{-(s_d dt)^2 / 2} up to H, so the dip
    is about 2 sqrt(2 ln 2) / s_d wide."""
    arms = (cfg.filter, cfg.filter.idler or cfg.filter)
    return (0.5 * sum(cfg.sigma_for(arm) ** -2 for arm in arms)) ** -0.5


def _nu_start(cfg: ExperimentConfig, n: int, reach: float) -> int:
    """Start order of the nu search from ``n``: the first of n, 2 n, ... (n made even) whose
    nested rule's period P = pi n / (2 half) in dt exceeds ``reach`` (past _MAX_NU_ORDER if none
    does), then doubled, while 2 n is within the cap, until the nested rule (step 4 half / n)
    (1) damps its half-period image, at P / 2 conjugate to nu_s + nu_i and (P / 2 - reach)+
        beyond the axis in dt,
    (2) puts _QUARTIC_NODES nodes on sigma_sg of every quartic stage, and
    (3) damps its image of the dip, at P - reach beyond the axis.
    On Gaussian arms and pump an image at (u, v) is damped by e^{-((u s_sum)^2 + (v s_d)^2) / 2},
    s_d of :func:`_dip_sigma` and 1 / s_sum^2 = 1 / sigma_p^2 + 1 / s_d^2 (Trefethen & Weideman,
    SIAM Rev. 56, 2014); damped means within _ABS_TOL / 2: hypot(u s_sum, v s_d) >= _ALIAS_SIGMAS."""
    half, arms, s_d = _nu_half(cfg), (cfg.filter, cfg.filter.idler or cfg.filter), _dip_sigma(cfg)
    s_sum = (cfg.sigma_p_rad_per_ps ** -2 + s_d ** -2) ** -0.5
    s_q = min((cfg.sigma_sg_for(arm) for arm in arms if arm.shape is not FilterShape.GAUSSIAN),
              default=math.inf)

    def passes(n):
        p = math.pi * n / (2.0 * half)
        return (min((p - reach) * s_d, math.hypot(0.5 * p * s_sum, max(0.5 * p - reach, 0.0) * s_d))
                >= _ALIAS_SIGMAS and s_q * n >= 4.0 * half * _QUARTIC_NODES)
    n += n % 2
    while n <= _MAX_NU_ORDER and math.pi * n <= 2.0 * half * reach:
        n *= 2
    while 2 * n <= _MAX_NU_ORDER and not passes(n):
        n *= 2
    return n


def _spectral_rates(delays: np.ndarray, cfg: ExperimentConfig, n: int,
                    label: str) -> tuple[np.ndarray, dict, Callable]:
    """Rates of :func:`_searched` on the trapezoid rule and its nested rule on the even nodes,
    from :func:`_nu_start` of ``n``.  The series repeats with period 2 pi / step, where both
    rules read the dip again and the estimate cannot see it, so the start's nested period
    pi / step exceeds every |delay|; past _MAX_NU_ORDER the axis is wider than the largest
    rule's period and the search raises.  The start's other conditions only skip orders whose
    estimate would fail, so where it does not pass the order a search from the reach alone
    settles on, the result is that search's, bit for bit."""
    n = _nu_start(cfg, n, float(np.max(np.abs(delays), initial=0.0)))

    def rule(n):
        step, series, kappa, z_record = _spectral_tables(cfg, n)
        return (lambda points: _cosine_sums(points, series)), series[2].shape[1], kappa, {
            "nu_order": n, "nu_halfwidth": step * n / 2, **z_record}
    return _searched(delays, n, _MAX_NU_ORDER, rule, label)


def _closed_rates(delays: np.ndarray, cfg: ExperimentConfig,
                  label: str) -> tuple[np.ndarray, dict, Callable]:
    """Rates of :func:`_searched` on the lag rules of n and 3 n / 4 nodes, stacked for
    :func:`_lag_sums`; too many cycles of beta2 D sigma_0^2 over D in [0, L] raise first."""
    def rule(n):
        orders = [n, 3 * n // 4]
        (k, a, baseline), (kc, ac, baseline_c) = [_lag_tables(cfg, order) for order in orders]
        _require_normalizable([baseline, baseline_c], f"{label} at lag orders {orders}")
        weights = np.zeros((n + kc.size, 3), dtype=complex)
        weights[:n, 0], weights[n:, 1] = 2.0 * k / baseline, 2.0 * kc / baseline_c
        weights[:n, 2] = -4.0 * k * a / baseline
        stacked = np.concatenate([a, ac]), weights.real.copy(), weights.imag.copy()
        kappa = 2.0 * float(np.sum(np.abs(k))) / abs(baseline)
        # 8 temporaries of one lag row per delay, each at most 2^14 elements per block: under
        # glibc's default mmap threshold (128 KB), so they are reused, not mapped and faulted anew
        return (lambda d: _lag_sums(d, *stacked)), 8 * len(weights), kappa, {"lag_orders": orders}
    _nodes_per_cycle(abs(cfg.fiber.beta2_ps2_per_m) * cfg.fiber.length_m
                     * cfg.sigma_0_rad_per_ps**2 / (2.0 * math.pi), label)
    start = _nodes_per_cycle(_g_cycles(cfg), label)
    return _searched(delays, start, _MAX_GL_ORDER, rule, label)


@dataclass(frozen=True)
class DipCurve:
    """Sampled coincidence rate versus delay, normalized to a baseline of 1, and the
    quadrature run.

    ``rule`` is the rule the engine's search settled on: an array of delays to its fine
    and coarse rates and the fine slope dR/ddt (columns), before the clamp at zero.  R is
    even, least at 0 and tends to 1, which :func:`dip_metrics` relies on.  ``config`` is the
    configuration the engine ran on, which gives the dip's width (None: a curve built by hand).
    """

    delays_ps: np.ndarray
    rates: np.ndarray
    engine: str
    rule: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False)
    quadrature: dict = field(default_factory=dict)
    config: ExperimentConfig | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        _require_axis(self.delays_ps)
        if not np.all(np.isfinite(self.rates) & (self.rates >= 0)):
            raise ValueError("rates must be finite and nonnegative")


@dataclass(frozen=True)
class DipMetrics:
    visibility: float
    fwhm_ps: float
    center_ps: float
    baseline: float
    engine: str = ""
    # sample pairs bracketing the half level on the (left, right) flank; more than
    # one means the FWHM is the widest of several crossings.  None: not counted
    half_level_crossings: tuple[int, int] | None = None
    # the FWHM's error estimate, from the engine rule's fine and coarse rates at the
    # crossing, and the visibility's, |fine - coarse| at 0; None: not estimated (a fit)
    fwhm_error_ps: float | None = None
    visibility_error: float | None = None


def dip_curve(cfg: ExperimentConfig, engine: str = "gaussian",
              delays_ps: np.ndarray | None = None,
              settings: QuadratureSettings | None = None,
              signal_filter: FilterSpec | None = None,
              idler_filter: FilterSpec | None = None) -> DipCurve:
    """Sample an engine over a delay axis (default 0.1 ps steps on [-15, 15]) and record
    the quadrature run; the rate at one delay dt equals ``dip_curve(cfg, engine,
    [dt]).rates[0]`` to rounding (within 1.1e-16 on the default configs: a one-row BLAS
    product sums in another order).  The engine runs once per distinct |dt| of the axis,
    so the rates are exactly even.

    Explicit filters, given as a pair, replace the arms of ``cfg`` for every
    engine; ``asymmetric`` is ``general`` with the pair required.  The
    ``gaussian`` and ``supergaussian`` engines reject any arms other than
    identical Gaussian or quartic filters (``_ENGINE_SHAPES``); past that guard
    ``supergaussian`` is ``general``.
    """
    gl_order = (settings or QuadratureSettings()).gl_order
    if delays_ps is None:
        delays_ps = np.round(np.arange(-150, 151) * 0.1, 10)
    delays_ps = np.asarray(delays_ps, dtype=float)
    _require_axis(delays_ps)  # before any engine: a NaN or infinite delay fails every search
    if signal_filter is not None or idler_filter is not None or engine == "asymmetric":
        if signal_filter is None or idler_filter is None:
            raise ValueError(f"{engine} engine needs both explicit signal and idler filters")
        cfg = replace(cfg, filter=replace(signal_filter, idler=idler_filter))
    if engine not in _ENGINE_SHAPES:
        raise ValueError(f"unknown engine {engine!r}; choose from {sorted(_ENGINE_SHAPES)}")
    label, shape = f"{engine} engine", _ENGINE_SHAPES[engine]
    if shape is not None and (cfg.filter.shape is not shape or cfg.filter.idler is not None):
        raise ValueError(f"{label} requires identical {shape.value} filters on both arms")
    folded, inverse = np.unique(np.abs(delays_ps), return_inverse=True)
    rates, quadrature, rule = (_closed_rates(folded, cfg, label) if engine == "gaussian"
                               else _spectral_rates(folded, cfg, gl_order, label))
    if np.any(rates < -_ABS_TOL):
        raise AccuracyError(f"{label}: negative rate {np.min(rates):.3e} beyond abs_tol "
                            f"{_ABS_TOL:.1e} (kappa = {quadrature['kappa']:.3e})")
    return DipCurve(delays_ps=delays_ps, rates=np.maximum(rates, 0.0)[inverse], engine=engine,
                    rule=rule, quadrature=quadrature, config=cfg)


def _half_level(rule: Callable, level: float, x: list, gap: list) -> tuple[float, float]:
    """w where the rule's fine column meets ``level``, and fine - coarse at the last evaluation,
    for a sample pair at |delays| ``x`` whose rates lie ``gap`` from the level: the first
    sample if it is on the level, else :func:`homsim.quadrature._newton` on the slope column
    from the pair's linear interpolation, inside the pair."""
    if gap[0] == 0.0:
        return x[0], float(np.subtract(*rule(np.array(x[:1]))[0, :2]))

    def fine_slope_coarse(w: float) -> tuple[float, float, float]:
        fine, coarse, slope = rule(np.array([w]))[0].tolist()
        return fine, slope, coarse

    (lo, g_lo), (hi, g_hi) = sorted(zip(x, gap))
    w, (fine, _, coarse), _, _ = _newton(fine_slope_coarse, level, lo, hi, g_lo < 0.0,
                                         lo - g_lo * (hi - lo) / (g_hi - g_lo))
    return w, fine - coarse


def _rule_metrics(curve: DipCurve, imin: int) -> DipMetrics:
    """The metrics of an even curve with baseline 1 that is least at 0, read from its rule:
    R(0) and w > 0 where R(w) = (1 + R(0)) / 2.  Out from sample ``imin`` each flank counts
    the sample pairs that bracket that level; the outermost such pair of either flank holds
    w, which :func:`_half_level` solves on the rule.  The FWHM is 2 w, infinite when no pair
    brackets the level, and its estimate 2 |fine - coarse| / |R'| at the solve's last
    evaluation, with R' the slope of that pair; the visibility's is |fine - coarse| at 0."""
    d, r = curve.delays_ps, curve.rates
    fine0, coarse0 = curve.rule(np.zeros(1))[0, :2].tolist()
    r0 = max(fine0, 0.0)  # clamped, as the rates are
    level = 0.5 * (1.0 + r0)
    gap = r - level
    on, cross = gap == 0.0, gap[:-1] * gap[1:] < 0  # cross[k]: samples k and k + 1 bracket it
    # the pairs (i, i - 1) of the left flank and (i, i + 1) of the right one, by their i
    left = np.flatnonzero(on[1:imin + 1] | cross[:imin]) + 1
    right = np.flatnonzero(on[imin:-1] | cross[imin:]) + imin
    counts = (left.size, right.size)
    pairs = [(i, i + side) for outermost, side in ((left[:1], -1), (right[-1:], 1))
             for i in outermost.tolist()]
    width = error = math.inf
    if pairs:
        i, j = max(pairs, key=lambda p: max(abs(d[p[0]]), abs(d[p[1]])))
        width, spread = _half_level(curve.rule, level, np.abs(d[[i, j]]).tolist(),
                                    gap[[i, j]].tolist())
        slope = abs(float(r[j] - r[i]) / float(d[j] - d[i]))
        error = 2.0 * abs(spread) / slope if slope else math.inf
    return DipMetrics(visibility=1.0 - r0, fwhm_ps=2.0 * width, center_ps=0.0, baseline=1.0,
                      engine=curve.engine, half_level_crossings=counts,
                      fwhm_error_ps=error, visibility_error=abs(fine0 - coarse0))


def dip_metrics(curve: DipCurve) -> DipMetrics:
    """Visibility, FWHM and center of an engine curve, from the engine's rule.

    The curve is even with baseline 1 and least at 0, so its center is 0, its
    visibility 1 - R(0) and its FWHM 2 w at the half level (1 + R(0)) / 2 (see
    :func:`_rule_metrics`).  The samples decide whether there is a dip: a sampled
    minimum within 1e-9 of 1 is none, one inside the outermost 10 % of samples on
    either side sits in the baseline margin, and a flank on which no sample pair
    brackets the half level leaves it unbracketed; each raises :class:`AnalysisError`.
    ``half_level_crossings`` counts the bracketing pairs on each flank, so a count
    above 1 says the flank is not monotone and the FWHM is the widest of its crossings.
    When these or the solve fail and the curve's widest delay step exceeds the width
    2 sqrt(2 ln 2) / s_d of its ``config``'s dip (:func:`_dip_sigma`), the error names both.
    """
    try:
        n = curve.delays_ps.size
        edge = max(int(round(_BASELINE_FRACTION * n / 2)), 1)
        imin = int(np.argmin(curve.rates))
        if 1.0 - curve.rates[imin] < 1e-9:
            raise AnalysisError("no dip found: curve is flat at the baseline")
        if imin < edge or imin >= n - edge:
            raise AnalysisError("dip minimum lies inside the baseline margin; "
                                "widen the delay range")
        metrics = _rule_metrics(curve, imin)
        if 0 in metrics.half_level_crossings:
            raise AnalysisError("half-depth level not bracketed on both flanks")
        return metrics
    except (AccuracyError, AnalysisError) as exc:
        if curve.config is None:
            raise
        width = 2.0 * math.sqrt(2.0 * math.log(2.0)) / _dip_sigma(curve.config)
        step = float(np.max(np.diff(curve.delays_ps), initial=0.0))
        if step <= width:
            raise
        raise AnalysisError(f"delay step {step:g} ps is {step / width:.3g} times the dip's width "
                            f"of about {width:.3g} ps, too coarse to resolve it ({exc})") from exc


def write_curve_csv(curve: DipCurve, path) -> None:
    """Write the curve as CSV rows delay_ps,rate_normalized, each value as ``%.17g``
    through :func:`homsim.jsa._write_csv`."""
    _write_csv(path, ["delay_ps", "rate_normalized"], [curve.delays_ps, curve.rates])


def metrics_record(metrics: DipMetrics) -> dict:
    """The metrics as a JSON-ready record of all their fields; a FWHM or FWHM estimate
    that is not finite (a fit's unbracketed half level) becomes None."""
    record = asdict(metrics)
    for key in ("fwhm_ps", "fwhm_error_ps"):
        if record[key] is not None and not math.isfinite(record[key]):
            record[key] = None
    return record
