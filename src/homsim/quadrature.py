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
* :func:`_newton` -- the package's one root finder: Newton's method on a value and its
  slope, safeguarded by bisection inside a bracket, with scipy ``brentq``'s stop.  It
  solves the dip's half level on an engine rule (``hom``) and the depth of the Airy
  overlap for the beam angle (``imperfections``).

Results are deterministic: identical arguments give bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Tuple

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
_MAX_NEWTON = 100        # evaluations of :func:`_newton` before it gives up
_NEWTON_RTOL = 4 * np.finfo(float).eps  # relative part of its stop, as scipy brentq's


class AccuracyError(RuntimeError):
    """A rule could not meet its tolerance: its estimate failed up to its largest order,
    or a result lies beyond the tolerance."""


@dataclass(frozen=True)
class QuadratureSettings:
    gl_order: int = 96  # start order of every spectral engine's nu search, the order that
                        # passes at the default config; the tolerance is fixed (_ABS_TOL)

    def __post_init__(self) -> None:
        order = self.gl_order
        if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 2:
            raise ValueError(f"gl_order must be an integer >= 2, got {order!r}")
        object.__setattr__(self, "gl_order", int(order))  # a numpy integer becomes an int


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
    _ABS_TOL + c kappa eps at every point, its record and its sums.  ``rule(n)`` gives the
    points -> [fine, coarse, ...] sums, kappa and a record; each order's sums run once, on
    the whole array.  A NaN estimate fails.  An estimate below _FLOOR_FACTOR c kappa eps
    that a doubling does not shrink is rounding: raise.  A start order past the cap raises
    before any rule is evaluated."""
    if n > cap:
        raise AccuracyError(f"{label}: start order {n} is past the largest, {cap}")
    last = math.inf
    while n <= cap:
        sums, kappa, record = rule(n)
        floor = _ROUNDING_FACTOR * kappa * np.finfo(float).eps
        values = sums(points)
        estimate = float(np.max(np.abs(values[:, 0] - values[:, 1]), initial=0.0))
        if estimate <= _ABS_TOL + floor:  # NaN fails
            return values[:, 0], {
                **record, "error_estimate": estimate, "kappa": kappa, "abs_tol": _ABS_TOL}, sums
        failure = f"{label}: error estimate {estimate:.3e} exceeds tolerance (kappa = {kappa:.3e})"
        if last <= estimate <= _FLOOR_FACTOR * floor:
            raise AccuracyError(f"{failure} and a doubling to {n} did not shrink it: rounding")
        last, n = estimate, 2 * n
    raise AccuracyError(f"{failure}; no order up to {cap} passes")


def _newton(f: Callable[[float], Sequence[float]], level: float, lo: float, hi: float, rising: bool,
            x: float, xtol: float = 2e-12) -> tuple[float, Sequence[float], int, float]:
    """x where f's value meets ``level`` in [lo, hi], by Newton's method from ``x`` on
    f(x) = (value, slope, ...): the root, the last evaluation, the evaluation count and the
    last step.  ``rising`` says the value is below the level at lo.  Each evaluation narrows
    the bracket to its side, and a step that leaves it bisects it; the stop, tested first,
    is |step| <= xtol + 4 eps |x|, scipy brentq's, and 100 evaluations raise."""
    for count in range(1, _MAX_NEWTON + 1):
        value = f(x)
        step = (level - value[0]) / value[1] if value[1] else math.inf
        if abs(step) <= xtol + _NEWTON_RTOL * abs(x):
            return x + step, value, count, step
        lo, hi = (x, hi) if (value[0] < level) == rising else (lo, x)
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
    raise AccuracyError(f"root not resolved in {_MAX_NEWTON} steps")
