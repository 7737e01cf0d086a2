"""Independent oracles of the package's numerics, for the tests only.

* :func:`integrate_1d` -- an adaptive Gauss-Kronrod 7/15 scheme for complex
  integrands over a finite interval, with its own tolerances and subdivision cap.
* :func:`phi_closed` -- the closed form of the pump convolution Phi, the oracle of
  ``jsa._g_function`` (G is Phi(0, 0, z) times the SPM phase).
* :func:`phi_oracle` -- the pump convolution Phi by direct quadrature over the
  pump detuning, with the wavenumber mismatch :func:`delta_k`: the oracle of
  :func:`phi_closed`.
* :func:`bessel_j1` -- J1 by the trapezoid rule on Bessel's integral, on the
  nodes ``imperfections._nodes`` that the Airy amplitude of the spatial overlap
  shares; checked against mpmath beside that amplitude.
* :func:`q_oracle` -- the pair amplitude Q at one point by the adaptive rule over
  the fiber length: the oracle of ``jsa.q_amplitude`` and its searched z rule.
* :func:`jsa_grid_values` -- the normalized pair amplitude on ``jsa.jsa_grid``'s axes
  by the grid's earlier n^2 construction, the pump evaluated at every cell: the oracle
  of the factored grid.
* :func:`_brentq` -- a Brent root finder, numerically scipy's ``brentq`` with its
  defaults (so the oracles need only numpy): the oracle of the half level that
  ``hom.dip_metrics`` solves by ``quadrature._newton``.
* :func:`reach_start` -- the spectral engines' nu start from the axis's reach alone, so
  that a search from it is a plain doubling from ``gl_order``: the oracle of
  ``hom._nu_start``, which may skip only orders that this search fails.
* ``_Z_ORDER`` -- the order of the fixed 64-node Gauss-Legendre z rule the
  package once used, kept as the floor of the closed engine's reference sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from homsim import hom, quadrature
from homsim.imperfections import _nodes
from homsim.jsa import _check_arctan_branch, _h_values
from homsim.units import ExperimentConfig

# Gauss-Legendre order of the fixed z rule of the package's earlier H
_Z_ORDER = 64
# Tolerances of the adaptive oracles phi_oracle and q_oracle
_ORACLE_TOL = {"rel_tol": 1e-10, "abs_tol": 1e-14}

# Gauss-Kronrod 7/15 abscissae and weights on [-1, 1].  Odd-indexed Kronrod
# nodes are the embedded 7-point Gauss nodes.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)


class AccuracyError(quadrature.AccuracyError):
    """Requested tolerance not reached; ``best`` carries the best estimate, if any."""

    def __init__(self, message: str, best: "QuadratureResult | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error: float
    subdivisions: int = 0


def _gk15_panels(f, a_arr: np.ndarray, b_arr: np.ndarray):
    """Evaluate GK15 on a batch of panels; return (kronrod, gauss_err) per panel."""
    mid = 0.5 * (a_arr + b_arr)[:, None]
    half = 0.5 * (b_arr - a_arr)[:, None]
    x = mid + half * _XK[None, :]
    y = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
    if not np.all(np.isfinite(y.view(float))):
        raise ValueError("integrand returned a non-finite value inside the box")
    k = half[:, 0] * (y @ _WK)
    g = half[:, 0] * (y[:, _GAUSS_IDX] @ _WG)
    return k, np.abs(k - g)


def integrate_1d(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, *,
                 rel_tol: float = 1e-7, abs_tol: float = 1e-12,
                 max_subdivisions: int = 1000) -> QuadratureResult:
    """Adaptively integrate a complex integrand f over a finite interval [a, b].

    Panels with the largest error estimates are bisected until the summed
    error estimate meets max(abs_tol, rel_tol * |value|) or the subdivision
    cap is reached (then :class:`AccuracyError` carries the best estimate).
    """
    if not (rel_tol > 0 and abs_tol > 0):
        raise ValueError("tolerances must be positive")
    if max_subdivisions < 1:
        raise ValueError("max_subdivisions must be >= 1")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration interval must be finite; truncate upstream")
    vals, errs = _gk15_panels(f, np.array([a], dtype=float), np.array([b], dtype=float))
    panels = [(a, b, vals[0], errs[0])]
    nsub = 1

    while True:
        # Summation in left-endpoint order keeps results bit-stable.
        panels.sort(key=lambda p: p[0])
        total = complex(sum(p[2] for p in panels))
        toterr = float(sum(p[3] for p in panels))
        tol = max(abs_tol, rel_tol * abs(total))
        if toterr <= tol:
            return QuadratureResult(total, toterr, nsub)
        if nsub >= max_subdivisions:
            raise AccuracyError(
                f"1-D quadrature did not converge: error {toterr:.3e} > tol {tol:.3e} "
                f"after {nsub} subdivisions",
                QuadratureResult(total, toterr, nsub),
            )
        # Split every panel holding more than its share of the error budget.
        thresh = max(tol / max(len(panels), 1), max(p[3] for p in panels) * 0.5)
        to_split = [p for p in panels if p[3] >= thresh]
        if not to_split:
            to_split = [max(panels, key=lambda p: p[3])]
        to_split = to_split[: max_subdivisions - nsub]
        keep = [p for p in panels if p not in to_split]
        new_a, new_b = [], []
        for (lo, hi, _, _) in to_split:
            m = 0.5 * (lo + hi)
            new_a.extend([lo, m])
            new_b.extend([m, hi])
        vals, errs = _gk15_panels(f, np.array(new_a), np.array(new_b))
        keep.extend(zip(new_a, new_b, vals, errs))
        panels = keep
        nsub += len(to_split)


def delta_k(nu_p, nu_s, nu_i, cfg: ExperimentConfig):
    """Wavenumber mismatch (1/m) to second order in dispersion.

    beta2 * [(Delta/2 - nu_p)^2 + (Delta/2 - nu_p)(nu_s + nu_i) + nu_s nu_i];
    symmetric under nu_s <-> nu_i.
    """
    b2 = cfg.fiber.beta2_ps2_per_m
    half_delta = 0.5 * cfg.Delta_rad_per_ps
    d = half_delta - np.asarray(nu_p)
    return b2 * (d * d + d * (np.asarray(nu_s) + np.asarray(nu_i)) + np.asarray(nu_s) * np.asarray(nu_i))


def phi_closed(nu_s, nu_i, z, cfg: ExperimentConfig):
    """Closed-form pump convolution Phi(nu_s, nu_i, z); broadcasts over numpy arrays."""
    nu_s = np.asarray(nu_s, dtype=float)
    nu_i = np.asarray(nu_i, dtype=float)
    z = np.asarray(z, dtype=float)
    _check_arctan_branch(z, cfg)
    sp = cfg.sigma_p_rad_per_ps
    b2 = cfg.fiber.beta2_ps2_per_m
    delta = cfg.Delta_rad_per_ps
    s = nu_s + nu_i
    den = 1.0 + b2**2 * z**2 * sp**4
    amp = (
        math.sqrt(math.pi) * sp
        * np.exp(-s**2 / (4.0 * sp**2))
        * np.exp(-(b2**2 * z**2 * delta**2 * sp**2) / (4.0 * den))
        / den**0.25
    )
    phase = (
        0.25 * b2 * z * (delta**2 - (nu_s - nu_i) ** 2)
        + 0.5 * np.arctan(b2 * z * sp**2)
        - (b2**3 * z**3 * delta**2 * sp**4) / (4.0 * den)
    )
    return amp * np.exp(1j * phase)


def phi_oracle(nu_s: float, nu_i: float, z: float, cfg: ExperimentConfig) -> complex:
    """Pump convolution by direct quadrature over the pump detuning.

    Independent check of :func:`phi_closed`: integrates the product of the
    two Gaussian pump spectra and the phase-mismatch factor over nu_p, on a
    6 sigma_p window centered on the integrand's Gaussian peak at (nu_s + nu_i)/2.
    """
    sp = cfg.sigma_p_rad_per_ps
    s = nu_s + nu_i

    def f(nu_p: np.ndarray) -> np.ndarray:
        envelope = np.exp(-(nu_p**2 + (s - nu_p) ** 2) / (2.0 * sp**2))
        return envelope * np.exp(1j * delta_k(nu_p, nu_s, nu_i, cfg) * z)

    return integrate_1d(f, s / 2.0 - 6.0 * sp, s / 2.0 + 6.0 * sp, **_ORACLE_TOL).value


def q_oracle(nu_s: float, nu_i: float, cfg: ExperimentConfig) -> complex:
    """Joint spectral amplitude Q(nu_s, nu_i) at one point by the adaptive 1-D rule: the
    z integral of Phi times the SPM phase, independent of the package's factored kernel."""
    L = cfg.fiber.length_m
    spm = 2.0 * cfg.fiber.gamma_per_W_m * cfg.pumps.peak_power_W

    def f(z: np.ndarray) -> np.ndarray:
        return phi_closed(float(nu_s), float(nu_i), z, cfg) * np.exp(-1j * spm * z)

    return integrate_1d(f, -L, 0.0, **_ORACLE_TOL).value


def jsa_grid_values(cfg: ExperimentConfig, n_points: int, span: float = 3.0) -> np.ndarray:
    """Q on the axes of ``jsa.jsa_grid(cfg, n_points, span)``, normalized to max |Q| = 1 by
    its n^2 construction: the pump envelope at every cell's nu_s + nu_i times a Toeplitz view
    of the package's H, then the peak over all cells.  It shares H, so it checks the
    factoring, the pump and the normalization."""
    half, sp = span * cfg.sigma_0_rad_per_ps, cfg.sigma_p_rad_per_ps
    axis = np.linspace(-half, half, n_points)
    # on the uniform axis nu_s - nu_i = (i - j) * step, so H takes n_points values, and
    # [i, j] = h[|i - j|] is a Toeplitz view of h[n - 1], ..., h[1], h[0], ..., h[n - 1]
    h, record = _h_values((np.arange(n_points) * (2.0 * half / (n_points - 1))) ** 2, cfg)
    toeplitz = np.lib.stride_tricks.sliding_window_view(np.concatenate([h[:0:-1], h]),
                                                        n_points)[::-1]
    q = (math.sqrt(math.pi) * sp * np.exp(-(axis[:, None] + axis) ** 2 / (4.0 * sp**2))
         * toeplitz)
    peak = np.max(np.abs(q))
    if peak > 0:
        q = q / peak
    return q


def bessel_j1(x: float) -> float:
    """J1(x) = (1/2pi) int_0^2pi cos(t - x sin t) dt (Bessel's integral).

    The integrand's mean over the N nodes at |x|, signed as x (J1 is odd): within
    1e-14 for |x| <= 20 and 1e-13 up to |x| = 1e6, beyond which it raises.
    """
    _, t = _nodes(x)
    return float(np.sign(x)) * float(np.mean(np.cos(t - abs(x) * np.sin(t))))


_BRENTQ_XTOL = 2e-12
_BRENTQ_RTOL = 4 * np.finfo(float).eps
_BRENTQ_MAXITER = 100


def _brentq(f: Callable[[float], float], a: float, b: float,
            xtol: float = _BRENTQ_XTOL) -> float:
    """Root of f in [a, b] by Brent's method, as scipy's ``brentq`` with its
    defaults: it stops once the bracket is below xtol + 4 eps |x|.

    Raises ``ValueError`` if f(a) and f(b) have the same sign or f returns
    NaN, and ``RuntimeError`` if 100 iterations do not converge.
    """

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENTQ_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # secant
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:                   # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num, den = -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
            # a denominator that underflowed to 0 makes scipy's C step infinite: it bisects
            stry = num / den if den != 0 else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"brentq did not converge after {_BRENTQ_MAXITER} iterations")


def reach_start(cfg: ExperimentConfig, n: int, reach: float) -> int:
    """n made even, then doubled until the nested rule's period pi n / (2 half) in the delay
    exceeds ``reach`` (past ``hom._MAX_NU_ORDER`` if none does): the nu start from the reach
    alone, the spectral engines' start before ``hom._nu_start``."""
    half = hom._nu_half(cfg)
    n += n % 2
    while n <= hom._MAX_NU_ORDER and math.pi * n <= 2.0 * half * reach:
        n *= 2
    return n
