import math

import numpy as np
import pytest

from homsim import hom, units


C = units.C_NM_PER_PS


def test_wavelength_to_angular_frequency_direct():
    # omega = 2 pi c / lambda with c = 3e5 nm/ps
    expected = 2.0 * math.pi * C / 1550.0
    assert units.wavelength_to_angular_frequency(1550.0) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(1216.1004, abs=1e-4)


def test_wavelength_to_angular_frequency_monotone():
    lams = np.linspace(800.0, 2000.0, 50)
    omegas = [units.wavelength_to_angular_frequency(l) for l in lams]
    assert all(a > b for a, b in zip(omegas, omegas[1:]))


@pytest.mark.parametrize("bad", [0.0, -1.0, -1550.0])
def test_wavelength_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        units.wavelength_to_angular_frequency(bad)


def test_pump_frequency_difference():
    w1 = units.wavelength_to_angular_frequency(1555.92)
    w2 = units.wavelength_to_angular_frequency(1545.95)
    delta = w2 - w1
    expected = 2.0 * math.pi * C * (1.0 / 1545.95 - 1.0 / 1555.92)
    assert delta == pytest.approx(expected, rel=1e-15)
    assert delta > 0
    assert delta == pytest.approx(7.8129, abs=1e-4)


def test_fwhm_to_sigma_value():
    # power-spectrum FWHM: sigma = 2 pi c dlam / lam^2 / (2 sqrt(ln 2))
    expected = 2.0 * math.pi * C * 0.8 / 1550.92**2 / (2.0 * math.sqrt(math.log(2.0)))
    got = units.fwhm_nm_to_sigma(0.8, 1550.92)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(0.3765, abs=2e-4)


def test_fwhm_to_sigma_linearity():
    s1 = units.fwhm_nm_to_sigma(0.8, 1550.92)
    s2 = units.fwhm_nm_to_sigma(1.6, 1550.92)
    assert s2 == pytest.approx(2.0 * s1, rel=1e-14)


def test_fwhm_rejects_nonpositive():
    with pytest.raises(ValueError):
        units.fwhm_nm_to_sigma(0.0, 1550.0)
    with pytest.raises(ValueError):
        units.fwhm_nm_to_sigma(0.8, -1.0)


class TestExperimentConfig:
    def test_reference_values(self):
        cfg = units.default_config()
        assert cfg.fiber.length_m == 300.0
        assert cfg.fiber.beta2_ps2_per_m == pytest.approx(-1.16e-4, rel=1e-12)
        assert cfg.fiber.gamma_per_W_m == 1.8e-3
        assert cfg.pumps.peak_power_W == 0.36

    def test_center_is_mean_of_pump_frequencies(self):
        cfg = units.default_config()
        w1 = units.wavelength_to_angular_frequency(1555.92)
        w2 = units.wavelength_to_angular_frequency(1545.95)
        assert cfg.Omega_rad_per_ps == 0.5 * (w1 + w2)
        assert cfg.Omega_rad_per_ps - w1 == pytest.approx(cfg.Delta_rad_per_ps / 2, rel=1e-12)
        assert w2 - cfg.Omega_rad_per_ps == pytest.approx(cfg.Delta_rad_per_ps / 2, rel=1e-12)

    def test_swapped_pumps_flip_delta_sign(self):
        cfg = units.default_config()
        swapped = units.build_config(
            length_m=300.0, beta2_ps2_per_km=-0.116, gamma_per_W_m=1.8e-3,
            lambda_p1_nm=1545.95, lambda_p2_nm=1555.92,
            pump_fwhm_nm=0.8, peak_power_W=0.36,
        )
        assert swapped.Delta_rad_per_ps == -cfg.Delta_rad_per_ps
        assert swapped.Omega_rad_per_ps == cfg.Omega_rad_per_ps

    def test_pump_and_filter_sigma_match_for_equal_fwhm(self):
        cfg = units.default_config()
        assert cfg.sigma_0_rad_per_ps == cfg.sigma_p_rad_per_ps

    def test_deterministic(self):
        a = units.default_config()
        b = units.default_config()
        assert a == b
        assert a.sigma_p_rad_per_ps == b.sigma_p_rad_per_ps

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            units.FiberParams(length_m=-1.0, beta2_ps2_per_m=0.0, gamma_per_W_m=0.0)
        with pytest.raises(ValueError):
            units.FiberParams(length_m=1.0, beta2_ps2_per_m=float("nan"), gamma_per_W_m=0.0)
        with pytest.raises(ValueError):
            units.PumpParams(lambda_p1_nm=1550.0, lambda_p2_nm=1550.0,
                             fwhm_nm=0.8, peak_power_W=0.1)
        with pytest.raises(ValueError):
            units.FilterSpec(fwhm_nm=0.0)


def test_idler_equal_to_the_signal_filter_is_dropped():
    # one representation of matched arms: an idler of the signal's shape and FWHM is no idler
    cascade = units.FilterShape.CASCADE
    assert units.FilterSpec(cascade, 1.2, idler=units.FilterSpec(cascade, 1.2)).idler is None
    assert units.FilterSpec(cascade, 1.2, idler=units.FilterSpec(cascade, 1.2)) == \
        units.FilterSpec(cascade, 1.2)
    for idler in (units.FilterSpec(cascade, 1.3), units.FilterSpec(fwhm_nm=1.2)):
        assert units.FilterSpec(cascade, 1.2, idler=idler).idler == idler
    with pytest.raises(ValueError, match="cannot itself carry"):
        units.FilterSpec(idler=units.FilterSpec(idler=units.FilterSpec(fwhm_nm=0.9)))


def test_filter_shape_given_by_value_is_the_member():
    # a value compares and hashes equal to its member, so a config holding it shares the engines'
    # cached tables: it must run the same filter, not fall through filter_amplitude's identity
    # tests to the cascade (whose table a default gaussian curve then read)
    spec = units.FilterSpec(shape="gaussian", idler=units.FilterSpec(shape="cascade"))
    assert spec.shape is units.FilterShape.GAUSSIAN
    assert spec.idler.shape is units.FilterShape.CASCADE
    cfg, nu = units.default_config(), np.linspace(-3.0, 3.0, 7)
    assert np.array_equal(hom.filter_amplitude(units.FilterSpec("gaussian"), nu, cfg),
                          hom.filter_amplitude(cfg.filter, nu, cfg))
    with pytest.raises(ValueError, match="not a valid FilterShape"):
        units.FilterSpec(shape="quartic")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("record,valid", [
    (units.FiberParams, {"length_m": 300.0, "beta2_ps2_per_m": -1e-4, "gamma_per_W_m": 1.8e-3}),
    (units.PumpParams, {"lambda_p1_nm": 1555.92, "lambda_p2_nm": 1545.95, "fwhm_nm": 0.8,
                        "peak_power_W": 0.36}),
    (units.FilterSpec, {"fwhm_nm": 0.8})], ids=["fiber", "pump", "filter"])
def test_nonfinite_field_is_named(record, valid, value):
    record(**valid)
    for name in valid:
        with pytest.raises(ValueError, match=f"{record.__name__}.{name} must be finite"):
            record(**{**valid, name: value})


@pytest.mark.parametrize("change,rate", [
    ({"lambda_p1_nm": 1e-300}, "Omega_rad_per_ps"),
    ({"lambda_p2_nm": 1e300, "lambda_p1_nm": 2e300}, "Omega_rad_per_ps"),
    ({"lambda_p1_nm": 1.8e81, "lambda_p2_nm": 1e81}, "Delta_rad_per_ps"),  # Omega 1.5e-75
    ({"pump_fwhm_nm": 1e300}, "sigma_p_rad_per_ps"),
    ({"pump_fwhm_nm": 1e-300}, "sigma_p_rad_per_ps"),
    ({"filter_fwhm_nm": 1e300}, "sigma_0_rad_per_ps"),
    ({"filter_fwhm_nm": 1e-80}, "sigma_0_rad_per_ps"),
    ({"idler_filter_fwhm_nm": 1e300}, "idler sigma_rad_per_ps"),
])
def test_unrepresentable_derived_rate_is_named(change, rate):
    # finite inputs whose derived rates would over- or underflow in the engines
    with pytest.raises(ValueError, match=f"derived {rate} = .* cannot be represented"):
        units.build_config(**{**units.REFERENCE_PARAMS, **change})


def test_derived_rate_bounds_are_inclusive():
    lo, hi = 1e-75, 1e75
    assert units._representable("r", lo) == lo and units._representable("r", -hi) == -hi
    for bad in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf), 0.0, math.nan):
        with pytest.raises(ValueError, match="derived r"):
            units._representable("r", bad)


def test_supergaussian_sigma_calibration():
    # power transmission exp(-2 nu^4 / sigma^4) = 1/2 at half the power FWHM
    sigma = units.fwhm_nm_to_sigma_supergaussian(0.8, 1550.92)
    half_width = units.fwhm_nm_to_delta_omega(0.8, 1550.92) / 2.0
    assert math.exp(-2.0 * half_width**4 / sigma**4) == pytest.approx(0.5, rel=1e-12)
