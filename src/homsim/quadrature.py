"""Error-controlled rules and the package's private curve numerics.

* :func:`gauss_legendre` -- fixed Gauss-Legendre nodes and weights, the rule of the
  closed engine's lag axis and, with its embedded 3/4-order rule as one cached node
  set, of the z axis of ``jsa``'s H (not of any nu axis).
* :func:`_searched` -- the one doubling search that sizes every rule of the
  package: the spectral engines' nu order, the closed engine's lag order and the
  z order of H.  Each rule carries an embedded estimate, |fine - coarse| on a
  coarser rule evaluated with it, checked against _ABS_TOL = 1e-12 plus
  10 kappa eps; a NaN estimate fails.  A start past the cap (_MAX_GL_ORDER for
  the z and lag rules) or a search that reaches it raises :class:`AccuracyError`.
* a not-a-knot cubic spline (the engine model of ``fitdata``) and a Brent root
  finder, numerically the defaults of scipy's ``CubicSpline`` and ``brentq`` (so
  importing the package needs only numpy).

Results are deterministic: identical arguments give bit-identical output.
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
    "gauss_legendre",
]

_ABS_TOL = 1e-12         # the searched rules' fixed absolute tolerance
_ROUNDING_FACTOR = 10.0  # c of the searched rules' error tolerance _ABS_TOL + c kappa eps
_FLOOR_FACTOR = 100.0    # an estimate that stalls within this factor of c kappa eps is rounding
_MAX_GL_ORDER = 1024     # largest order of the searched Gauss-Legendre rules (z and lag)


class AccuracyError(RuntimeError):
    """A rule could not meet its tolerance: its estimate failed up to its largest order,
    or a result lies beyond the tolerance."""


@dataclass(frozen=True)
class QuadratureSettings:
    gl_order: int = 96  # start order of every spectral engine's nu search, the order that
                        # passes at the default config; the tolerance is fixed (_ABS_TOL)

    def __post_init__(self) -> None:
        if self.gl_order < 2:
            raise ValueError("gl_order must be >= 2")


@lru_cache(maxsize=128)
def _unit_rule(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """``leggauss(order)`` as read-only arrays: it costs about a millisecond per call."""
    x, w = leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=64)
def _embedded_unit_rule(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """The unit rules of ``order`` and ``3 * order // 4`` nodes end to end, read-only: one
    node set holds a rule and its embedded 3/4-order rule."""
    x, w = (np.concatenate(pair) for pair in zip(_unit_rule(order), _unit_rule(3 * order // 4)))
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _mapped(x: np.ndarray, w: np.ndarray, a: float, b: float) -> Tuple[np.ndarray, np.ndarray]:
    """Unit-rule nodes and weights mapped to [a, b], as new arrays."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def gauss_legendre(order: int, a: float, b: float) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [a, b] (new arrays on every call)."""
    return _mapped(*_unit_rule(order), a, b)


def _searched(points: np.ndarray, n: int, cap: int, rule,
              label: str) -> tuple[np.ndarray, dict, Callable[[np.ndarray], np.ndarray]]:
    """Values at the first order n, 2 n, ... <= cap whose estimate |fine - coarse| meets
    _ABS_TOL + c kappa eps at every point, its record and its sums; the end and middle
    points are tried first, a cheap early exit, and the full array decides.  ``rule(n)``
    gives the points -> [fine, coarse] sums, kappa and a record.  A NaN estimate fails.
    An estimate below _FLOOR_FACTOR c kappa eps that a doubling does not shrink is
    rounding: raise.  A start order past the cap raises before any rule is evaluated."""
    if n > cap:
        raise AccuracyError(f"{label}: start order {n} is past the largest, {cap}")
    stages, last = ([points[[0, points.size // 2, -1]]] if points.size else []) + [points], None
    while n <= cap:
        sums, kappa, record = rule(n)
        floor = _ROUNDING_FACTOR * kappa * np.finfo(float).eps
        for stage, subset in enumerate(stages):
            values = sums(subset)
            estimate = float(np.max(np.abs(values[:, 0] - values[:, 1]), initial=0.0))
            if not estimate <= _ABS_TOL + floor:  # NaN fails
                break
        else:
            return values[:, 0], {
                **record, "error_estimate": estimate, "kappa": kappa, "abs_tol": _ABS_TOL}, sums
        failure = f"{label}: error estimate {estimate:.3e} exceeds tolerance (kappa = {kappa:.3e})"
        if last and last[0] == stage and last[1] <= estimate <= _FLOOR_FACTOR * floor:
            raise AccuracyError(f"{failure} and a doubling to {n} did not shrink it: rounding")
        last, n = (stage, estimate), 2 * n
    raise AccuracyError(f"{failure}; no order up to {cap} passes")


class _CubicSpline:
    """Not-a-knot cubic spline through (x, y), as scipy's default ``CubicSpline``.

    The knot slopes solve scipy's tridiagonal system; piece i
    is c0 t^3 + c1 t^2 + c2 t + c3 with t = x - x[i].  Outside [x[0], x[-1]]
    the end pieces extrapolate.  ``_slope(*spline._piece(xq))`` is the first derivative.
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

    def __call__(self, xq):
        """The spline at a float or array."""
        return _value(*self._piece(xq))

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
