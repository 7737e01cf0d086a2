"""Parameter model and unit conversions.

Laboratory inputs (nm, W, m, ps^2/km) are converted once into the internal
unit system: angular frequency in rad/ps, time in ps, length in m, power
in W.  In these units the dimensionless products beta2*z*sigma^2 that drive
all the dispersion phases stay O(1), so nothing over- or underflows.  The
parameter records reject any non-finite number field with a ValueError naming it,
and ExperimentConfig rejects a derived rate (Omega, Delta, each sigma) whose
magnitude lies outside [1e-75, 1e75] rad/ps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Optional

__all__ = ["C_NM_PER_PS", "REFERENCE_PARAMS", "ExperimentConfig", "FiberParams", "FilterShape",
           "FilterSpec", "PumpParams", "build_config", "default_config", "fwhm_nm_to_delta_omega",
           "fwhm_nm_to_sigma", "fwhm_nm_to_sigma_supergaussian", "wavelength_to_angular_frequency"]

# Speed of light, fixed to 3e8 m/s (= 3e5 nm/ps) so that derived frequencies
# match the round value used in the reference experiment, not CODATA.
C_NM_PER_PS = 3.0e5

_TWO_SQRT_LN2 = 2.0 * math.sqrt(math.log(2.0))
# Half-power point of the quartic amplitude profile exp(-nu^4/sigma^4):
# |t|^2 = exp(-2 nu^4/sigma^4) = 1/2  at  nu = sigma * (ln2/2)^(1/4).
_SG_HALF_POWER = (math.log(2.0) / 2.0) ** 0.25


class FilterShape(str, Enum):
    GAUSSIAN = "gaussian"
    SUPERGAUSSIAN4 = "supergaussian4"
    CASCADE = "cascade"  # Gaussian stage followed by a 4th-order super-Gaussian stage


def wavelength_to_angular_frequency(lambda_nm: float) -> float:
    """Convert a vacuum wavelength in nm to angular frequency in rad/ps."""
    if not lambda_nm > 0:
        raise ValueError(f"wavelength must be positive, got {lambda_nm} nm")
    return 2.0 * math.pi * C_NM_PER_PS / lambda_nm


def fwhm_nm_to_delta_omega(fwhm_nm: float, center_lambda_nm: float) -> float:
    """Convert a wavelength FWHM to an angular-frequency FWHM (rad/ps)."""
    if not fwhm_nm > 0:
        raise ValueError(f"FWHM must be positive, got {fwhm_nm} nm")
    if not center_lambda_nm > 0:
        raise ValueError(f"center wavelength must be positive, got {center_lambda_nm} nm")
    return 2.0 * math.pi * C_NM_PER_PS * fwhm_nm / center_lambda_nm**2


def fwhm_nm_to_sigma(fwhm_nm: float, center_lambda_nm: float) -> float:
    """Gaussian amplitude width sigma (rad/ps) from a power FWHM in nm.

    For an amplitude profile exp(-(w-W)^2/(2 sigma^2)) the power spectrum
    |E|^2 has FWHM = 2 sigma sqrt(ln 2).
    """
    return fwhm_nm_to_delta_omega(fwhm_nm, center_lambda_nm) / _TWO_SQRT_LN2


def fwhm_nm_to_sigma_supergaussian(fwhm_nm: float, center_lambda_nm: float) -> float:
    """Width sigma of the quartic amplitude profile exp(-nu^4/sigma^4).

    Calibrated so the power transmission exp(-2 nu^4/sigma^4) reaches 1/2
    at half the configured power FWHM.
    """
    dw = fwhm_nm_to_delta_omega(fwhm_nm, center_lambda_nm)
    return (dw / 2.0) / _SG_HALF_POWER


def _require_finite(params) -> None:
    """Reject a non-finite number field of a parameter record, naming the field."""
    for name, value in vars(params).items():
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ValueError(f"{type(params).__name__}.{name} must be finite, got {value}")


@dataclass(frozen=True)
class FiberParams:
    """Dispersion-shifted fiber: length L (m), GVD beta2 (ps^2/m), nonlinearity gamma (1/W/m)."""

    length_m: float
    beta2_ps2_per_m: float
    gamma_per_W_m: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.length_m > 0:
            raise ValueError(f"fiber length must be positive, got {self.length_m} m")
        if self.gamma_per_W_m < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma_per_W_m}")


@dataclass(frozen=True)
class PumpParams:
    """Two synchronized Gaussian pump pulses with a common bandwidth and peak power."""

    lambda_p1_nm: float
    lambda_p2_nm: float
    fwhm_nm: float
    peak_power_W: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.lambda_p1_nm > 0 and self.lambda_p2_nm > 0):
            raise ValueError("pump wavelengths must be positive")
        if self.lambda_p1_nm == self.lambda_p2_nm:
            raise ValueError("pump wavelengths must differ (non-degenerate pumps)")
        if not self.fwhm_nm > 0:
            raise ValueError(f"pump FWHM must be positive, got {self.fwhm_nm} nm")
        if self.peak_power_W < 0:
            raise ValueError(f"peak power must be nonnegative, got {self.peak_power_W} W")


@dataclass(frozen=True)
class FilterSpec:
    """Optical bandpass filter in front of a detector.

    ``shape`` may be given by its value (``"gaussian"``), which is converted to the member the
    engines compare by identity.  ``fwhm_nm`` is the power-transmission FWHM.  For ``CASCADE``
    it is the FWHM of each stage individually.  ``idler`` optionally gives a different filter for
    the idler arm (asymmetric configuration); an idler of the same shape and FWHM is dropped, so
    matched arms always read ``idler is None``.
    """

    shape: FilterShape = FilterShape.GAUSSIAN
    fwhm_nm: float = 0.8
    idler: Optional["FilterSpec"] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", FilterShape(self.shape))
        _require_finite(self)
        if not self.fwhm_nm > 0:
            raise ValueError(f"filter FWHM must be positive, got {self.fwhm_nm} nm")
        if self.idler is not None and self.idler.idler is not None:
            raise ValueError("idler filter cannot itself carry an idler override")
        if self.idler is not None and self.idler == FilterSpec(self.shape, self.fwhm_nm):
            object.__setattr__(self, "idler", None)


def _representable(name: str, rate: float) -> float:
    """A derived rate whose magnitude lies in [1e-75, 1e75] rad/ps (NaN fails), where the
    engines' powers of it, up to the 4th, and the center wavelength's square stay normal."""
    if not 1e-75 <= abs(rate) <= 1e75:
        raise ValueError(f"derived {name} = {rate:.3g} is outside [1e-75, 1e75] in "
                         "magnitude: the config cannot be represented")
    return rate


@dataclass(frozen=True)
class ExperimentConfig:
    """All physical parameters plus cached derived quantities in internal units."""

    fiber: FiberParams
    pumps: PumpParams
    filter: FilterSpec

    # derived, populated in __post_init__
    Omega_rad_per_ps: float = field(init=False)
    Delta_rad_per_ps: float = field(init=False)
    sigma_p_rad_per_ps: float = field(init=False)
    sigma_0_rad_per_ps: float = field(init=False)
    center_lambda_nm: float = field(init=False)

    def __post_init__(self) -> None:
        w1 = wavelength_to_angular_frequency(self.pumps.lambda_p1_nm)
        w2 = wavelength_to_angular_frequency(self.pumps.lambda_p2_nm)
        # energy conservation for the degenerate pair; checked before the center is formed
        omega = _representable("Omega_rad_per_ps", 0.5 * (w1 + w2))
        center = 2.0 * math.pi * C_NM_PER_PS / omega
        object.__setattr__(self, "Omega_rad_per_ps", omega)
        object.__setattr__(self, "Delta_rad_per_ps", _representable("Delta_rad_per_ps", w2 - w1))
        object.__setattr__(self, "center_lambda_nm", center)
        # Both pump spectra and the filters are converted at the signal/idler
        # center; the sub-percent error from the pumps' own centers is accepted.
        for name, fwhm_nm in (("sigma_p_rad_per_ps", self.pumps.fwhm_nm),
                              ("sigma_0_rad_per_ps", self.filter.fwhm_nm)):
            object.__setattr__(self, name, _representable(name, fwhm_nm_to_sigma(fwhm_nm, center)))
        if self.filter.idler is not None:
            _representable("idler sigma_rad_per_ps", self.sigma_for(self.filter.idler))

    def sigma_for(self, spec: FilterSpec) -> float:
        """Gaussian-stage sigma for an arbitrary filter spec at this config's center."""
        return fwhm_nm_to_sigma(spec.fwhm_nm, self.center_lambda_nm)

    def sigma_sg_for(self, spec: FilterSpec) -> float:
        """Quartic-stage sigma for an arbitrary filter spec at this config's center."""
        return fwhm_nm_to_sigma_supergaussian(spec.fwhm_nm, self.center_lambda_nm)


def build_config(
    length_m: float,
    beta2_ps2_per_km: float,
    gamma_per_W_m: float,
    lambda_p1_nm: float,
    lambda_p2_nm: float,
    pump_fwhm_nm: float,
    peak_power_W: float,
    filter_shape: str | FilterShape = FilterShape.GAUSSIAN,
    filter_fwhm_nm: float = 0.8,
    idler_filter_fwhm_nm: Optional[float] = None,
    idler_filter_shape: Optional[str | FilterShape] = None,
) -> ExperimentConfig:
    """Assemble an ExperimentConfig from laboratory-unit inputs.

    Note beta2 is taken in ps^2/km here (the unit data sheets quote) and
    stored internally in ps^2/m.
    """
    idler = None
    if idler_filter_fwhm_nm is not None or idler_filter_shape is not None:
        idler = FilterSpec(idler_filter_shape or filter_shape,
                           filter_fwhm_nm if idler_filter_fwhm_nm is None else idler_filter_fwhm_nm)
    return ExperimentConfig(
        fiber=FiberParams(
            length_m=length_m,
            beta2_ps2_per_m=beta2_ps2_per_km * 1e-3,
            gamma_per_W_m=gamma_per_W_m,
        ),
        pumps=PumpParams(
            lambda_p1_nm=lambda_p1_nm,
            lambda_p2_nm=lambda_p2_nm,
            fwhm_nm=pump_fwhm_nm,
            peak_power_W=peak_power_W,
        ),
        filter=FilterSpec(shape=filter_shape, fwhm_nm=filter_fwhm_nm, idler=idler),
    )


# Reference parameter set of the dual-pump fiber source experiment, in the
# laboratory units that build_config takes.
REFERENCE_PARAMS = MappingProxyType({
    "length_m": 300.0, "beta2_ps2_per_km": -0.116, "gamma_per_W_m": 1.8e-3,
    "lambda_p1_nm": 1555.92, "lambda_p2_nm": 1545.95,
    "pump_fwhm_nm": 0.8, "peak_power_W": 0.36,
    "filter_shape": "gaussian", "filter_fwhm_nm": 0.8,
})


def default_config(filter_shape: str | FilterShape = FilterShape.GAUSSIAN) -> ExperimentConfig:
    """Reference parameter set of the dual-pump fiber source experiment.

    L = 300 m, beta2 = -0.116 ps^2/km, gamma = 1.8e-3 /W/m, Pp = 0.36 W,
    pumps at 1555.92 nm and 1545.95 nm, pump and filter FWHM 0.8 nm.
    """
    return build_config(**{**REFERENCE_PARAMS, "filter_shape": filter_shape})
