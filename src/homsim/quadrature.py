"""Error-controlled 1-D integration and the package's private curve numerics.

* :func:`integrate_1d` -- an adaptive Gauss-Kronrod 7/15 scheme for complex
  integrands over a finite interval.  It is the oracle of the closed forms:
  the pump-frequency integral of ``jsa.phi_oracle`` and the fiber-length
  integral of a scalar ``jsa.q_amplitude``.
* :func:`gauss_legendre` -- fixed Gauss-Legendre nodes and weights, the rule of the
  z axis of ``jsa``'s H and of the closed engine's lag axis (not of any nu axis).
* a not-a-knot cubic spline and a Brent root finder, numerically the defaults
  of scipy's ``CubicSpline`` and ``brentq`` (so importing the package needs
  only numpy).

Integrands must accept numpy arrays (vectorized evaluation) and return
complex values that are finite everywhere inside the interval.  Results are
deterministic: identical arguments give bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "AccuracyError",
    "QuadratureSettings",
    "QuadratureResult",
    "integrate_1d",
    "gauss_legendre",
]

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


class AccuracyError(RuntimeError):
    """Requested tolerance not reached; ``best`` carries the best estimate, if any."""

    def __init__(self, message: str, best: "QuadratureResult | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class QuadratureSettings:
    abs_tol: float = 1e-12
    gl_order: int = 96              # start order of every spectral engine's nu search,
                                    # the order that passes at the default config

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.gl_order < 2:
            raise ValueError("gl_order must be >= 2")


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error: float
    subdivisions: int = 0


@lru_cache(maxsize=128)
def _unit_rule(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """``leggauss(order)`` as read-only arrays: it costs about a millisecond per call."""
    x, w = leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(order: int, a: float, b: float) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [a, b] (new arrays on every call)."""
    x, w = _unit_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


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


class _CubicSpline:
    """Not-a-knot cubic spline through (x, y), as scipy's default ``CubicSpline``.

    The knot slopes solve scipy's tridiagonal system; piece i
    is c0 t^3 + c1 t^2 + c2 t + c3 with t = x - x[i].  Outside [x[0], x[-1]]
    the end pieces extrapolate.  ``spline(xq, 1)`` is the first derivative.
    """

    def __init__(self, x, y):
        x = np.array(x, dtype=float)
        y = np.array(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("x and y must be 1-D arrays of equal length")
        if x.size < 2:
            raise ValueError("x must contain at least 2 elements")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("x and y must contain only finite values")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("x must be strictly increasing")
        slope = np.diff(y) / dx
        s = _knot_slopes(x, dx, slope)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self._x = x
        self._inner = x[1:-1]
        self._c0 = t / dx
        self._c1 = (slope - s[:-1]) / dx - t
        self._c2 = s[:-1]
        self._c3 = y[:-1]

    def __call__(self, xq, nu: int = 0):
        """Spline (``nu=0``) or its first derivative (``nu=1``) at a float or array."""
        if nu == 0:
            return _value(*self._piece(xq))
        if nu == 1:
            return _slope(*self._piece(xq))
        raise ValueError("nu must be 0 or 1")

    def _piece(self, xq):
        """Offset t of xq from its piece's left knot, and that piece's coefficients:
        the one knot search that :func:`_value` and :func:`_slope` share."""
        i = self._inner.searchsorted(xq, "right")
        return xq - self._x[i], self._c0[i], self._c1[i], self._c2[i], self._c3[i]


def _value(t, c0, c1, c2, c3):
    """A cubic piece c0 t^3 + c1 t^2 + c2 t + c3 at offset t."""
    return ((c0 * t + c1) * t + c2) * t + c3


def _slope(t, c0, c1, c2, c3):
    """The first derivative of that piece at offset t."""
    return (3.0 * c0 * t + 2.0 * c1) * t + c2


def _knot_slopes(x: np.ndarray, dx: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """First derivatives of the not-a-knot spline at its knots."""
    n = x.size
    if n == 2:      # the straight line
        return np.array([slope[0], slope[0]])
    if n == 3:      # the one parabola through three points
        a = (slope[1] - slope[0]) / (x[2] - x[0])
        return np.array([slope[0] - a * dx[0], slope[0] + a * dx[0], slope[1] + a * dx[1]])
    # scipy's system: rows 1..n-2 continue the second derivative, rows 0 and
    # n-1 the third derivative across x[1] and x[-2].  Row 1 minus row 0 and
    # row n-2 minus row n-1 drop s[0] and s[-1], leaving a strictly diagonally
    # dominant system for s[1:-1], padded with identity rows to 2^k - 1.
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    first = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    last = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    m = n - 2
    size = (1 << m.bit_length()) - 1
    lower, diag, upper, rhs = np.zeros(size), np.ones(size), np.zeros(size), np.zeros(size)
    lower[1:m] = dx[2:]
    diag[:m] = 2 * (dx[:-1] + dx[1:])
    upper[:m - 1] = dx[:m - 1]
    rhs[:m] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    diag[0] = d0
    rhs[0] -= first
    diag[m - 1] = d1
    rhs[m - 1] -= last
    s = np.empty(n)
    s[1:-1] = _cyclic_reduction(lower, diag, upper, rhs)[:m]
    s[0] = (first - d0 * s[1]) / dx[1]
    s[-1] = (last - d1 * s[-2]) / dx[-2]
    return s


def _cyclic_reduction(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] = d[i] for 2^k - 1 rows.

    Each level eliminates the even rows from the odd ones, halving the
    system; the even unknowns then follow from their odd neighbours.
    """
    if b.size == 1:
        return d / b
    ae, be, ce, de = a[::2], b[::2], c[::2], d[::2]
    alpha = -a[1::2] / be[:-1]
    gamma = -c[1::2] / be[1:]
    odd = np.zeros(b.size // 2 + 2)
    odd[1:-1] = _cyclic_reduction(alpha * ae[:-1],
                                  b[1::2] + alpha * ce[:-1] + gamma * ae[1:],
                                  gamma * ce[1:],
                                  d[1::2] + alpha * de[:-1] + gamma * de[1:])
    x = np.empty(b.size)
    x[1::2] = odd[1:-1]
    x[::2] = (de - ae * odd[:-1] - ce * odd[1:]) / be
    return x


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
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
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
