"""Joint spectral amplitude of the degenerate photon pair.

The pair amplitude Q(nu_s, nu_i) is the fiber-length integral of the pump
convolution Phi(nu_s, nu_i, z) times the pump self-phase-modulation factor
exp(-2i gamma Pp z).  Phi has an exact closed form (a Gaussian integral with
complex argument) that factors: Q = sqrt(pi) sigma_p e^{-s^2 / (4 sigma_p^2)} H(w),
s = nu_s + nu_i, w = (nu_s - nu_i)^2, with H one z integral per w.  Its
Gauss-Legendre rule, cached per (fiber, pumps, order), is sized by ``quadrature._searched``
from :func:`_nodes_per_cycle` of the integrand's phase, takes its error estimate from the
3/4-order rule evaluated in the same pass, and doubles up to 1,024 nodes
(``quadrature._MAX_GL_ORDER``); a start past that raises before any rule runs.
The overall pump amplitude squared is set to 1: every downstream quantity is
normalized, so absolute prefactors are unobservable.

All detunings nu are measured from the signal/idler center frequency in
rad/ps, z runs over [-L, 0] in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .quadrature import _MAX_GL_ORDER, AccuracyError, _chunks, _searched, gauss_legendre
from .units import ExperimentConfig, FiberParams, FilterSpec, PumpParams

__all__ = ["AmplitudeGrid", "q_amplitude", "jsa_grid", "write_grid_csv"]


def _check_arctan_branch(z, cfg: ExperimentConfig) -> None:
    # The closed form uses the principal arctan branch, valid while the
    # half-angle phase arctan(beta2 z sigma_p^2)/2 stays well inside
    # (-pi/4, pi/4).  Physical inputs keep the argument << 1.
    arg = np.abs(cfg.fiber.beta2_ps2_per_m) * np.max(np.abs(z), initial=0.0) * cfg.sigma_p_rad_per_ps**2
    if not np.isfinite(arg) or arg > 1.0:
        raise FloatingPointError(
            f"arctan branch assumption violated: |beta2 z sigma_p^2| = {arg:.3e} (must be < 1)"
        )


def _g_function(z, cfg: ExperimentConfig):
    """z-dependent factor G(z) = Phi(0, 0, z) e^{-2i gamma Pp z} / (sqrt(pi) sigma_p) of the
    pair amplitude: with u = beta2 z sigma_p^2 and b = beta2 Delta^2 z / (4 (1 + u^2)),
    G = e^{b (i - u) + i (arctan(u) / 2 - 2 gamma Pp z)} / (1 + u^2)^(1/4)."""
    z = np.asarray(z, dtype=float)
    _check_arctan_branch(z, cfg)
    u = cfg.fiber.beta2_ps2_per_m * z * cfg.sigma_p_rad_per_ps**2
    den = 1.0 + u**2
    b = 0.25 * cfg.fiber.beta2_ps2_per_m * cfg.Delta_rad_per_ps**2 * z / den
    spm = 2.0 * cfg.fiber.gamma_per_W_m * cfg.pumps.peak_power_W
    return np.exp(b * (1j - u) + 1j * (0.5 * np.arctan(u) - spm * z)) / den**0.25


def _g_cycles(cfg: ExperimentConfig, w_max: float = 0.0) -> float:
    """Cycles over the fiber of G's linear phase (2 gamma Pp - beta2 Delta^2 / 4) z, plus
    those of e^{-i beta2 w z / 4} at w = w_max: a bound on the phase of H's integrand."""
    b2_term = 0.25 * cfg.fiber.beta2_ps2_per_m * cfg.Delta_rad_per_ps**2
    return (abs(2.0 * cfg.fiber.gamma_per_W_m * cfg.pumps.peak_power_W - b2_term)
            + 0.25 * abs(cfg.fiber.beta2_ps2_per_m) * w_max) * cfg.fiber.length_m / (2.0 * math.pi)


def _nodes_per_cycle(cycles: float, label: str) -> int:
    """Start order of the z and lag rules: 4 nodes per cycle of their phase, at least 8, twice
    that past 0.5 and up to 8 cycles, where 4 per cycle failed 97 % of sweep searches and twice
    it passed 94 %; their 3/4-order rules have 3 per cycle.  A phase that needs more than
    _MAX_GL_ORDER nodes at 4 per cycle, or a cycle count that is not finite, raises."""
    if not 4.0 * cycles <= _MAX_GL_ORDER:
        raise AccuracyError(f"{label}: {cycles:.4g} cycles over the fiber need more than "
                            f"{_MAX_GL_ORDER} nodes at 4 per cycle")
    return 4 * max(2, math.ceil(cycles)) * (2 if 0.5 < cycles <= 8.0 else 1)


@lru_cache(maxsize=8)  # a config's z searches try a few orders
def _z_rule(fiber: FiberParams, pumps: PumpParams, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """H's z rule of n nodes and its 3/4-order rule end to end: their weights G(z) zw / L
    (columns), the exponents -i beta2 z / 4 (read-only arrays) and kappa.  G reads no filter
    (here one as wide as the pump, valid with it), so a config's tables share each order."""
    cfg = ExperimentConfig(fiber, pumps, FilterSpec(fwhm_nm=pumps.fwhm_nm))
    rules = [gauss_legendre(order, -fiber.length_m, 0.0) for order in (n, 3 * n // 4)]
    z, zw = map(np.concatenate, zip(*rules))
    gz = _g_function(z, cfg) * zw / fiber.length_m
    weights = np.zeros((z.size, 2), dtype=complex)  # the rule's weights, then the 3/4 rule's
    weights[:n, 0], weights[n:, 1] = gz[:n], gz[n:]
    kz = -0.25j * fiber.beta2_ps2_per_m * z
    weights.flags.writeable = kz.flags.writeable = False
    return weights, kz, float(np.sum(np.abs(gz[:n])))


def _h_values(w: np.ndarray, cfg: ExperimentConfig) -> tuple[np.ndarray, dict]:
    """H(w) = sum_z zw G(z) e^{-i beta2 w z / 4} at each w of a 1-D array and the record
    of its z rule.  :func:`_searched` sizes the rule from :func:`_nodes_per_cycle` of the
    integrand's phase; one node set holds the rule and its 3/4-order rule end to end, so
    one pass gives both, and the estimate is taken on H / L, where |G| <= 1."""
    def rule(n):
        weights, kz, kappa = _z_rule(cfg.fiber, cfg.pumps, n)

        def sums(points):
            return np.exp(np.multiply.outer(points, kz)) @ weights
        return sums, kz.size, kappa, {"z_order": n}

    label = "z rule of H"
    start = _nodes_per_cycle(_g_cycles(cfg, float(np.max(w, initial=0.0))), label)
    h, record, _ = _searched(w, start, _MAX_GL_ORDER, rule, label)
    return h * cfg.fiber.length_m, {"z_order": record["z_order"],
                                    "z_error_estimate": record["error_estimate"]}


def q_amplitude(nu_s, nu_i, cfg: ExperimentConfig) -> complex | np.ndarray:
    """Joint spectral amplitude Q(nu_s, nu_i), z integral of Phi times the SPM phase: Phi
    factors, Q = sqrt(pi) sigma_p e^{-s^2 / (4 sigma_p^2)} H(w), s = nu_s + nu_i, w =
    (nu_s - nu_i)^2, H once per w.  Broadcasts over arrays; scalars give a complex."""
    nu_s, nu_i = np.asarray(nu_s, dtype=float), np.asarray(nu_i, dtype=float)
    s, d = np.broadcast_arrays(nu_s + nu_i, nu_s - nu_i)
    w, inverse = np.unique(d**2, return_inverse=True)
    sp = cfg.sigma_p_rad_per_ps
    q = (math.sqrt(math.pi) * sp * np.exp(-s**2 / (4.0 * sp**2))
         * _h_values(w, cfg)[0][inverse].reshape(s.shape))
    return complex(q) if q.ndim == 0 else q


@dataclass(frozen=True)
class AmplitudeGrid:
    """Complex Q samples on a uniform detuning grid, normalized to max |Q| = 1, and the
    record of the z rule that ran (``z_order``, ``z_error_estimate``) when computed."""

    nu_s_axis: np.ndarray
    nu_i_axis: np.ndarray
    values: np.ndarray
    quadrature: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for axis in (self.nu_s_axis, self.nu_i_axis):
            d = np.diff(axis)  # d[0] is checked finite first: inf - inf would warn
            uniform = math.isfinite(d[0]) and np.all(np.abs(d - d[0]) <= 1e-8 + 1e-9 * abs(d[0]))
            if not (np.all(d > 0) and uniform):
                raise ValueError("grid axes must be strictly increasing and uniform")
        if self.values.shape != (self.nu_s_axis.size, self.nu_i_axis.size):
            raise ValueError("value array shape does not match axes")

    @property
    def abs2(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def jsa_grid(cfg: ExperimentConfig, n_points: int = 65, span: float = 3.0) -> AmplitudeGrid:
    """Sample Q on an (n_points x n_points) grid over +-span*sigma_0 per axis, max |Q| = 1: as
    nu_s + nu_i = (i + j - n + 1) step and nu_s - nu_i = (i - j) step, it is one product of a
    Hankel view of the pump at 2 n - 1 sums, scaled by the O(n) peak, and a Toeplitz one of H."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    half, sp = span * cfg.sigma_0_rad_per_ps, cfg.sigma_p_rad_per_ps
    # the largest squared detuning (2 half)^2 must stay finite, in the pump and in H's phase
    scale = 0.25 * max(sp**-2, abs(cfg.fiber.beta2_ps2_per_m) * cfg.fiber.length_m)
    if not (half > 0.0 and 4.0 * half * half * scale < math.inf):
        raise ValueError(f"span must be > 0 and keep the squared detuning finite, got {span!r}")
    axis, step = np.linspace(-half, half, n_points), 2.0 * half / (n_points - 1)
    h, record = _h_values((np.arange(n_points) * step) ** 2, cfg)
    pump = np.exp(-((np.arange(2 * n_points - 1) - (n_points - 1)) * step) ** 2 / (4.0 * sp**2))
    # at lag |i - j| = d the pump peaks on the sum nearest 0 of d's parity, (n - 1) or n
    peak = np.max(np.abs(h) * pump[n_points - 1 + (np.arange(n_points) + n_points - 1) % 2])
    if peak > 0:
        pump /= peak
    windows = np.lib.stride_tricks.sliding_window_view
    q = windows(pump, n_points) * windows(np.concatenate([h[:0:-1], h]), n_points)[::-1]
    return AmplitudeGrid(nu_s_axis=axis, nu_i_axis=axis.copy(), values=q, quadrature=record)


def _write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write float columns as CSV whose bytes equal ``csv.writer`` rows of
    ``f"{x:.17g}"`` values, CRLF line ends included.

    ``%.17g`` depends only on a float's bits, so each column formats each of its
    distinct bit patterns once (-0.0 stays apart from 0.0, every NaN prints
    ``nan``); rows are then gathered from those strings and written in blocks
    of about ``quadrature._CHUNK_ELEMENTS`` cells.
    """
    cells = []
    for k, column in enumerate(columns):
        bits, inverse = np.unique(np.ascontiguousarray(column, dtype=np.float64).view(np.uint64),
                                  return_inverse=True)
        # each string carries the separator after it, "," or the row's "\r\n"
        fmt = "%.17g" + (",", "\r\n")[k == len(columns) - 1] + "\0"
        strings = (fmt * bits.size % tuple(bits.view(np.float64).tolist())).split("\0")[:-1]
        cells.append((np.array(strings, dtype=object), inverse))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for sl in _chunks(inverse.size, len(columns)):
            block = np.stack([strings[rows[sl]] for strings, rows in cells], axis=1)
            fh.write("".join(block.ravel().tolist()))


def write_grid_csv(grid: AmplitudeGrid, path) -> None:
    """Write the grid as CSV rows nu_s,nu_i,re_q,im_q,abs2_q (axes in rad/ps), one row
    per cell, nu_s-major, each value as ``%.17g`` through :func:`_write_csv`."""
    n_s, n_i = grid.values.shape
    re, im = grid.values.real.ravel(), grid.values.imag.ravel()
    # |q|^2 as abs(q) ** 2 of each scalar, i.e. C pow: the array square rounds
    # differently in the last bit for about one value in 2000
    abs2 = [a**2 for a in np.hypot(re, im).tolist()]
    _write_csv(path, ["nu_s", "nu_i", "re_q", "im_q", "abs2_q"], [
        np.repeat(grid.nu_s_axis, n_i), np.tile(grid.nu_i_axis, n_s), re, im, abs2,
    ])
