"""Error-controlled rules and the package's root finder.

* :func:`gauss_legendre` -- fixed Gauss-Legendre nodes and weights, the rule of the
  closed engine's lag axis and, with its embedded 3/4-order rule as one cached node
  set, of the z axis of ``jsa``'s H (not of any nu axis).
* :func:`_searched` -- the one doubling search that sizes every rule of the
  package: the spectral engines' nu order, the closed engine's lag order and the
  z order of H.  Each rule carries an embedded estimate, |fine - coarse| on a
  coarser rule evaluated with it, checked against _ABS_TOL = 1e-12 plus
  10 kappa eps; a NaN estimate fails.  A start past the cap (_MAX_GL_ORDER for
  the z and lag rules) or a search that reaches it raises :class:`AccuracyError`.
* :func:`_brentq` -- a Brent root finder, numerically scipy's ``brentq`` with its
  defaults (so importing the package needs only numpy).

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
    gives the points -> [fine, coarse, ...] sums, kappa and a record.  A NaN estimate fails.
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
