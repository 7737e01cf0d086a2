"""End-to-end acceptance suite.

Each test exercises one headline requirement at its stated tolerance and
prints a single PASS/FAIL line (run with -s or look at captured output).
All tests use the reference configuration: 300 m fiber, beta2 = -0.116
ps^2/km, gamma = 1.8e-3 /W/m, pumps at 1555.92 / 1545.95 nm with 0.8 nm
FWHM, 0.36 W peak power, 0.8 nm detection filters.
"""

import math
import time

import numpy as np
import pytest

from homsim import fitdata, hom, imperfections, jsa, units
from oracles import phi_closed, phi_oracle


def _report(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def cfg():
    return units.default_config()


@pytest.fixture(scope="module")
def cfg_sg():
    return units.default_config("supergaussian4")


def test_01_closed_form_matches_quadrature_oracle(cfg):
    # 5 x 5 x 5 lattice over detunings and fiber position, 1e-7 relative
    t0 = time.perf_counter()
    sp = cfg.sigma_p_rad_per_ps
    nus = np.linspace(-3 * sp, 3 * sp, 5)
    zs = np.linspace(-cfg.fiber.length_m, 0.0, 5)
    worst = 0.0
    for ns in nus:
        for ni in nus:
            for z in zs:
                a = phi_closed(ns, ni, z, cfg)
                b = phi_oracle(ns, ni, z, cfg)
                worst = max(worst, abs(a - b) / abs(a))
    elapsed = time.perf_counter() - t0
    _report("closed-form pump envelope vs direct quadrature (125 points)",
            worst <= 1e-7 and elapsed < 30.0,
            f"max rel dev {worst:.3e} (tol 1e-7), {elapsed:.2f} s (limit 30 s)")


def test_02_general_engine_matches_closed_engine(cfg):
    t0 = time.perf_counter()
    delays = np.linspace(-15.0, 15.0, 31)
    worst = 0.0
    for dt in delays:
        worst = max(worst, abs(hom.dip_curve(cfg, "general", [dt]).rates[0]
                               - hom.dip_curve(cfg, "gaussian", [dt]).rates[0]))
    elapsed = time.perf_counter() - t0
    _report("general vs closed Gaussian dip engine (31 delays)",
            worst <= 1e-4 and elapsed < 300.0,
            f"max abs dev {worst:.3e} (tol 1e-4), {elapsed:.2f} s (limit 300 s)")


def test_03_ideal_visibility_both_engines(cfg, cfg_sg):
    g_min = hom.dip_curve(cfg, "gaussian", [0.0]).rates[0]
    sg_min = hom.dip_curve(cfg_sg, "supergaussian", [0.0]).rates[0]
    g_base = hom.dip_curve(cfg, "gaussian", [50.0]).rates[0]
    sg_base = hom.dip_curve(cfg_sg, "supergaussian", [50.0]).rates[0]
    rg, rsg = g_min / g_base, sg_min / sg_base
    _report("full-depth dip for both filter shapes",
            rg <= 1e-4 and rsg <= 1e-4,
            f"min/baseline gaussian {rg:.2e}, supergaussian {rsg:.2e} (tol 1e-4)")


def test_04_gaussian_dip_width(cfg):
    m = hom.dip_metrics(hom.dip_curve(cfg, "gaussian"))
    _report("Gaussian-filter dip FWHM",
            abs(m.fwhm_ps - 6.4) <= 0.3,
            f"FWHM {m.fwhm_ps:.4f} ps (target 6.4 +- 0.3)")


def test_05_supergaussian_dip_width(cfg_sg):
    # the quartic-filter width scale is calibrated so the power transmission
    # reaches half at the configured FWHM; the CLI manifest records this as
    # "half-power-at-configured-fwhm"
    t0 = time.perf_counter()
    m = hom.dip_metrics(hom.dip_curve(cfg_sg, "supergaussian"))
    elapsed = time.perf_counter() - t0
    _report("super-Gaussian-filter dip FWHM",
            abs(m.fwhm_ps - 8.0) <= 0.4 and elapsed < 1200.0,
            f"FWHM {m.fwhm_ps:.4f} ps (target 8.0 +- 0.4), {elapsed:.2f} s "
            f"(limit 1200 s)")


def test_06_dispersionless_analytic_width():
    c = units.build_config(
        length_m=300.0, beta2_ps2_per_km=0.0, gamma_per_W_m=0.0,
        lambda_p1_nm=1555.92, lambda_p2_nm=1545.95,
        pump_fwhm_nm=0.8, peak_power_W=0.36)
    m = hom.dip_metrics(hom.dip_curve(c, "gaussian"))
    expected = 2.0 * math.sqrt(2.0 * math.log(2.0)) / c.sigma_0_rad_per_ps
    rel = abs(m.fwhm_ps - expected) / expected
    _report("dispersionless dip width equals 2*sqrt(2 ln 2)/sigma_0",
            rel <= 1e-3,
            f"FWHM {m.fwhm_ps:.5f} ps vs analytic {expected:.5f} ps, "
            f"rel dev {rel:.2e} (tol 1e-3)")


def test_07_beam_splitter_correction():
    got = imperfections.bs_visibility_factor(imperfections.BeamSplitter(0.474, 0.526))
    _report("unbalanced beam-splitter visibility factor",
            abs(got - 0.9946) <= 1e-4,
            f"factor {got:.6f} (target 0.9946 +- 0.0001)")


def test_08_spatial_overlap_inversion_round_trip():
    theta = imperfections.solve_angle_for_overlap(0.943, 5e-3, 1.55e-6)
    achieved = imperfections.spatial_overlap(
        imperfections.SpatialGeometry(5e-3, 1.55e-6, theta))
    err = abs(achieved - 0.943)
    # the computed angle is reported as-is; a commonly quoted figure for this
    # scenario is ~30 urad but the aperture-overlap model gives a different
    # number, so we do not force agreement
    _report("angle inversion round-trip for 0.943 overlap",
            err <= 1e-10,
            f"theta {theta * 1e6:.2f} urad (cf. quoted ~30 urad), "
            f"round-trip error {err:.2e} (tol 1e-10)")


def test_09_fit_recovery_noiseless_and_noisy():
    delays = np.round(np.arange(-150, 151) * 0.1, 10)
    w = 7.2 / (2 * math.sqrt(2 * math.log(2)))
    truth = 1.0 - 0.943 * np.exp(-(delays**2) / (2 * w**2))
    res = fitdata.fit_gaussian_dip(fitdata.CoincidenceDataset(delays, truth))
    dv0 = abs(res.params["visibility"] - 0.943)
    dw0 = abs(res.params["fwhm_ps"] - 7.2)
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(100):
        noisy = np.clip(truth + rng.normal(0.0, 0.02, truth.size), 0.0, None)
        r = fitdata.fit_gaussian_dip(fitdata.CoincidenceDataset(delays, noisy))
        worst = max(worst, abs(r.params["visibility"] - 0.943))
    _report("dip fit recovers visibility and width",
            dv0 <= 1e-8 and dw0 <= 1e-8 and worst <= 0.01,
            f"noiseless |dV| {dv0:.1e}, |dFWHM| {dw0:.1e} (tol 1e-8); "
            f"worst |dV| over 100 noisy trials {worst:.4f} (tol 0.01)")


def test_10_symmetry_suite():
    rng = np.random.default_rng(42)
    worst_q, worst_r = 0.0, 0.0
    for k in range(20):
        c = units.build_config(
            length_m=float(rng.uniform(100.0, 500.0)),
            beta2_ps2_per_km=float(rng.uniform(-0.3, -0.05)),
            gamma_per_W_m=float(rng.uniform(0.0, 5e-3)),
            lambda_p1_nm=float(rng.uniform(1552.0, 1558.0)),
            lambda_p2_nm=float(rng.uniform(1542.0, 1548.0)),
            pump_fwhm_nm=float(rng.uniform(0.5, 1.2)),
            peak_power_W=float(rng.uniform(0.1, 0.6)),
        )
        ns, ni = rng.uniform(-1.0, 1.0, 2)
        a = jsa.q_amplitude(float(ns), float(ni), c)
        b = jsa.q_amplitude(float(ni), float(ns), c)
        worst_q = max(worst_q, abs(a - b) / max(abs(a), 1e-300))
        dt = float(rng.uniform(0.5, 10.0))
        rp = hom.dip_curve(c, "gaussian", [dt]).rates[0]
        rm = hom.dip_curve(c, "gaussian", [-dt]).rates[0]
        worst_r = max(worst_r, abs(rp - rm) / max(abs(rp), 1e-300))
    _report("exchange symmetry of Q and evenness of the dip (20 draws)",
            worst_q <= 1e-10 and worst_r <= 1e-10,
            f"max rel asymmetry Q {worst_q:.2e}, rate {worst_r:.2e} (tol 1e-10)")
