"""Visibility-degradation mechanisms with closed-form corrections.

Two mechanisms are modeled: beam-splitter imbalance (corrective factor
2RT/(R^2+T^2)) and spatial-mode mismatch at the beam splitter (squared Airy
overlap of the two tilted beams over the coupling-lens apertures).  The
combined budget multiplies the factors; that treats the mechanisms as
independent, which is an approximation, not a derivation.  The angle for a
target overlap inverts the Airy depth 1 - 2 J1(x)/x, a trapezoid sum with its
slope, by the package's root finder :func:`homsim.quadrature._newton`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .quadrature import _newton

__all__ = [
    "BeamSplitter",
    "SpatialGeometry",
    "bs_visibility_factor",
    "spatial_overlap",
    "solve_angle_for_overlap",
    "visibility_budget",
    "J1_FIRST_ZERO",
]

J1_FIRST_ZERO = 3.8317059702075123


@dataclass(frozen=True)
class BeamSplitter:
    """Non-ideal beam splitter with reflectance R and transmittance T, R + T = 1."""

    reflectance: float
    transmittance: float

    def __post_init__(self) -> None:
        if not (self.reflectance >= 0 and self.transmittance >= 0):
            raise ValueError("R and T must be nonnegative")
        if not abs(self.reflectance + self.transmittance - 1.0) <= 1e-9:
            raise ValueError(f"R + T must equal 1, got {self.reflectance + self.transmittance}")


@dataclass(frozen=True)
class SpatialGeometry:
    """Coupling-lens diameter d, wavelength, and beam intersection angle theta."""

    lens_diameter_m: float
    wavelength_m: float
    angle_rad: float

    def __post_init__(self) -> None:
        if not 0 < self.lens_diameter_m < math.inf:
            raise ValueError("lens diameter must be positive and finite")
        if not 0 < self.wavelength_m < math.inf:
            raise ValueError("wavelength must be positive and finite")
        if not abs(self.angle_rad) < math.pi / 2:
            raise ValueError("|theta| must be below pi/2")


def _nodes(x: float) -> tuple[int, np.ndarray]:
    """N = 32 + 2 ceil(|x|) and the nodes 2 pi k / N, on which the trapezoid rule converges
    geometrically for the periodic integrands of Bessel's and Poisson's integrals (Trefethen
    & Weideman, SIAM Review 56, 2014); |x| > 1e6 or NaN raises (5 mm, 1.55 um: x <= 1.01e4)."""
    if not abs(x) <= 1e6:
        raise ValueError(f"|x| must be at most 1e6, got {x}")
    n = 32 + 2 * math.ceil(abs(x))
    return n, np.arange(n, dtype=float) * (2.0 * math.pi / n)


def bs_visibility_factor(bs: BeamSplitter) -> float:
    """Visibility correction 2RT/(R^2 + T^2) for an imbalanced splitter."""
    r, t = bs.reflectance, bs.transmittance
    return 2.0 * r * t / (r * r + t * t)


def _airy_amplitude(x: float) -> float:
    """2 J1(x)/x = (1/pi) int_0^2pi cos(x cos t) sin^2 t dt (Poisson's integral).

    (2/N) sum_k cos(x cos t_k) sin^2 t_k over the N nodes: exactly 1 at x = 0,
    within 1e-14 for |x| <= 20 however small |x| is; raises beyond |x| = 1e6.
    """
    n, t = _nodes(x)
    s = np.sin(t)
    return 2.0 / n * float(np.dot(np.cos(x * np.cos(t)), s * s))


def spatial_overlap(geom: SpatialGeometry) -> float:
    """Squared amplitude overlap [2 J1(x)/x]^2, x = pi d |sin theta| / lambda."""
    x = math.pi * geom.lens_diameter_m * abs(math.sin(geom.angle_rad)) / geom.wavelength_m
    return _airy_amplitude(x) ** 2


def _airy_depth(x: float) -> tuple[float, float]:
    """1 - 2 J1(x)/x = (4/N) sum_k sin^2(x cos t_k / 2) sin^2 t_k and its slope
    (2/N) sum_k cos t_k sin(x cos t_k) sin^2 t_k, on the nodes of :func:`_airy_amplitude`:
    no term cancels, so the depth keeps its relative accuracy as x -> 0, where it is x^2/8."""
    n, t = _nodes(x)
    c, s2 = np.cos(t), np.sin(t) ** 2
    return (4.0 / n * float(np.dot(np.sin(0.5 * x * c) ** 2, s2)),
            2.0 / n * float(np.dot(c * np.sin(x * c), s2)))


@lru_cache(maxsize=16)
def _solve_angle(target: float, lens_diameter_m: float,
                 wavelength_m: float) -> tuple[float, MappingProxyType]:
    """:func:`solve_angle_for_overlap`'s angle and its solve's record: the Newton iterations,
    the last step in x and the depth residual at the last evaluation, read-only.  Cached, so
    that the record is that of the public function's solve."""
    SpatialGeometry(lens_diameter_m, wavelength_m, 0.0)  # validates d and lambda
    if not 0.0 < target < 1.0:
        raise ValueError(f"target overlap must be in (0, 1), got {target}")
    level = (1.0 - target) / (1.0 + math.sqrt(target))  # 1 - sqrt(target), without cancelling
    # the amplitude is 2.4e-18 at the zero: targets below ~6e-36 keep this x
    x, iterations, step = J1_FIRST_ZERO, 0, None
    residual = math.sqrt(target) - _airy_amplitude(x)
    if residual > 0.0:  # from x^2/8 = level: the depth lies below x^2/8
        x, (depth, _), iterations, step = _newton(_airy_depth, level, 0.0, J1_FIRST_ZERO, True,
                                                  math.sqrt(8.0 * level), xtol=1e-15)
        residual = depth - level
    s = x * wavelength_m / (math.pi * lens_diameter_m)
    if s >= 1.0:
        raise ValueError("target overlap unreachable for this geometry (sin theta >= 1)")
    return math.asin(s), MappingProxyType(
        {"iterations": iterations, "last_step": step, "depth_residual": residual})


def solve_angle_for_overlap(target: float, lens_diameter_m: float,
                            wavelength_m: float) -> float:
    """Angle theta (rad) at which the spatial overlap equals ``target``.

    Newton's method, to 1e-15 in x, on the depth 1 - 2 J1(x)/x = 1 - sqrt(target) over
    [0, first J1 zero], where it rises from 0 to 1: near target 1, where 2 J1(x)/x -
    sqrt(target) cancels, the depth keeps its relative accuracy.
    """
    return _solve_angle(target, lens_diameter_m, wavelength_m)[0]


def visibility_budget(ideal_visibility: float, bs: BeamSplitter | None = None,
                      geom: SpatialGeometry | None = None) -> float:
    """Multiply the ideal visibility by the independent correction factors."""
    v = ideal_visibility
    if bs is not None:
        v *= bs_visibility_factor(bs)
    if geom is not None:
        v *= spatial_overlap(geom)
    return v
