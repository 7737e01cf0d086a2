import csv
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from homsim import hom, jsa, quadrature, units
from homsim.quadrature import QuadratureSettings, gauss_legendre
from homsim.units import FilterShape, FilterSpec
from oracles import _Z_ORDER, _brentq, phi_closed


@pytest.fixture(scope="module")
def cfg():
    return units.default_config()


@pytest.fixture(scope="module")
def cfg_sg():
    return units.default_config("supergaussian4")


@pytest.fixture(scope="module")
def cfg_no_dispersion():
    return units.build_config(
        length_m=300.0, beta2_ps2_per_km=0.0, gamma_per_W_m=0.0,
        lambda_p1_nm=1555.92, lambda_p2_nm=1545.95,
        pump_fwhm_nm=0.8, peak_power_W=0.36,
    )


def even_rule(f, df):
    """An analytic even dip f as a DipCurve rule: its fine and coarse columns are both f,
    its slope column f's derivative df."""
    return lambda x: np.column_stack([f(x), f(x), df(x)])


def _rate(engine, dt, cfg, **filters):
    """The rate of one engine at one delay."""
    return hom.dip_curve(cfg, engine, [dt], **filters).rates[0]


class TestZeroDelay:
    def test_general_vanishes(self, cfg):
        assert _rate("general", 0.0, cfg) <= 1e-12

    def test_closed_vanishes(self, cfg):
        assert _rate("gaussian", 0.0, cfg) <= 1e-12

    def test_supergaussian_vanishes(self, cfg_sg):
        assert _rate("supergaussian", 0.0, cfg_sg) <= 1e-12


class TestBaseline:
    @pytest.mark.parametrize("engine", ["general", "gaussian"])
    def test_large_delay_baseline(self, cfg, engine):
        assert _rate(engine, 50.0, cfg) == pytest.approx(1.0, abs=0.01)

    def test_supergaussian_large_delay(self, cfg_sg):
        assert _rate("supergaussian", 50.0, cfg_sg) == pytest.approx(1.0, abs=0.01)


class TestSymmetry:
    @pytest.mark.parametrize("engine", ["general", "gaussian"])
    def test_even_in_delay(self, cfg, engine):
        for dt in (0.5, 2.0, 7.3):
            assert _rate(engine, dt, cfg) == pytest.approx(
                _rate(engine, -dt, cfg), rel=1e-10)

    def test_supergaussian_even(self, cfg_sg):
        for dt in (1.0, 4.0):
            assert _rate("supergaussian", dt, cfg_sg) == pytest.approx(
                _rate("supergaussian", -dt, cfg_sg), rel=1e-10)


class TestEngineAgreement:
    def test_reference_delays(self, cfg):
        for dt in (1.0, 3.0, 5.0, 8.0):
            a = _rate("general", dt, cfg)
            b = _rate("gaussian", dt, cfg)
            assert abs(a - b) < 1e-4

    def test_across_full_dip(self, cfg):
        for dt in np.linspace(-15, 15, 31):
            assert abs(_rate("general", dt, cfg) - _rate("gaussian", dt, cfg)) < 1e-4


class TestDispersionlessLimit:
    def test_analytic_dip_profile(self, cfg_no_dispersion):
        # with beta2 = gamma = 0 the closed form collapses to 1 - exp(-dt^2 s0^2 / 2)
        s0 = cfg_no_dispersion.sigma_0_rad_per_ps
        for dt in (0.5, 2.0, 4.0, 8.0):
            expected = 1.0 - math.exp(-(dt**2) * s0**2 / 2.0)
            assert _rate("gaussian", dt, cfg_no_dispersion) == pytest.approx(
                expected, rel=1e-8)

    def test_fwhm(self, cfg_no_dispersion):
        s0 = cfg_no_dispersion.sigma_0_rad_per_ps
        curve = hom.dip_curve(cfg_no_dispersion, "gaussian")
        metrics = hom.dip_metrics(curve)
        expected = 2.0 * math.sqrt(2.0 * math.log(2.0)) / s0
        assert metrics.fwhm_ps == pytest.approx(expected, rel=1e-3)


class TestAsymmetric:
    def test_identical_filters_match_general(self, cfg):
        f = FilterSpec(shape=FilterShape.GAUSSIAN, fwhm_nm=0.8)
        for dt in (0.0, 1.0, 3.0, 6.0, 10.0):
            a = _rate("asymmetric", dt, cfg, signal_filter=f, idler_filter=f)
            b = _rate("general", dt, cfg)
            assert abs(a - b) <= 1e-10

    def test_mismatch_degrades_visibility(self, cfg):
        sig = FilterSpec(shape=FilterShape.GAUSSIAN, fwhm_nm=0.8)
        idl = FilterSpec(shape=FilterShape.GAUSSIAN, fwhm_nm=0.88)
        curve = hom.dip_curve(cfg, "asymmetric", signal_filter=sig, idler_filter=idl)
        metrics = hom.dip_metrics(curve)
        assert metrics.visibility < 1.0

    def test_mismatch_against_grid_sum_oracle(self, cfg):
        # brute-force direct evaluation of the asymmetric integrand on a
        # 200 x 200 trapezoid grid, fully independent of the engine's rule
        from homsim.jsa import q_amplitude

        sig = FilterSpec(shape=FilterShape.GAUSSIAN, fwhm_nm=0.8)
        idl = FilterSpec(shape=FilterShape.GAUSSIAN, fwhm_nm=0.88)
        s_sig = cfg.sigma_for(sig)
        s_idl = cfg.sigma_for(idl)
        half = 6.0 * max(s_sig, s_idl)
        nu = np.linspace(-half, half, 200)
        ns, ni = np.meshgrid(nu, nu, indexing="ij")
        q = np.asarray(q_amplitude(ns, ni, cfg))
        f = q * np.exp(-ns**2 / (2 * s_sig**2)) * np.exp(-ni**2 / (2 * s_idl**2))
        base = np.sum(np.abs(f) ** 2)

        def oracle(dt):
            cross = np.sum(f * np.conj(f.T) * np.exp(-1j * (ni - ns) * dt))
            return 1.0 - cross.real / base

        min_engine = _rate("asymmetric", 0.0, cfg, signal_filter=sig, idler_filter=idl)
        assert min_engine == pytest.approx(oracle(0.0), abs=2e-4)
        for dt in (2.0, 5.0):
            assert _rate("asymmetric", dt, cfg, signal_filter=sig,
                         idler_filter=idl) == pytest.approx(oracle(dt), abs=2e-4)
        # the residual coincidence floor is strictly positive
        assert min_engine > 1e-5

    def test_explicit_filters_replace_config_arms(self, cfg):
        # every engine runs on an explicit filter pair, not only asymmetric
        wide = FilterSpec(shape=FilterShape.GAUSSIAN, fwhm_nm=1.0)
        cfg_wide = units.build_config(**{**units.REFERENCE_PARAMS, "filter_fwhm_nm": 1.0})
        curve = hom.dip_curve(cfg, "gaussian", signal_filter=wide, idler_filter=wide)
        assert np.array_equal(curve.rates, hom.dip_curve(cfg_wide, "gaussian").rates)
        sig = FilterSpec(shape=FilterShape.GAUSSIAN, fwhm_nm=0.8)
        idl = FilterSpec(shape=FilterShape.GAUSSIAN, fwhm_nm=0.88)
        with pytest.raises(ValueError, match="identical gaussian filters"):
            hom.dip_curve(cfg, "gaussian", signal_filter=sig, idler_filter=idl)
        with pytest.raises(ValueError, match="both explicit"):
            hom.dip_curve(cfg, "general", signal_filter=wide)


class TestSuperGaussian:
    def test_wider_than_gaussian(self, cfg, cfg_sg):
        g = hom.dip_metrics(hom.dip_curve(cfg, "gaussian"))
        sg = hom.dip_metrics(hom.dip_curve(cfg_sg, "supergaussian"))
        assert sg.fwhm_ps > g.fwhm_ps

    @pytest.mark.parametrize("order", [96, 192])
    def test_same_as_general_at_every_start_order(self, cfg_sg, order):
        # past its quartic-filter guard the supergaussian engine is the general one
        settings = QuadratureSettings(gl_order=order)
        sg = hom.dip_curve(cfg_sg, "supergaussian", settings=settings)
        general = hom.dip_curve(cfg_sg, "general", settings=settings)
        assert np.array_equal(sg.rates, general.rates)
        assert sg.quadrature == general.quadrature and sg.quadrature["nu_order"] == order

    def test_factored_matches_direct_4d(self, cfg_sg):
        # the spectral tables (factored kernel, z-sum folded into H, cross weights
        # summed over their diagonals) must equal the plain 4-D tensor rule on the
        # same trapezoid nodes, and on the nested rule's even nodes: rebuild
        # numerator and baseline from the raw integrand, on the z rule the tables ran
        from homsim.jsa import _g_function

        order = 24
        spec = FilterSpec(shape=FilterShape.SUPERGAUSSIAN4, fwhm_nm=cfg_sg.filter.fwhm_nm)
        half = hom._nu_halfwidth(spec, cfg_sg)
        step, series, _, z_record = hom._spectral_tables(cfg_sg, order)
        z, zw = gauss_legendre(z_record["z_order"], -cfg_sg.fiber.length_m, 0.0)
        b2 = cfg_sg.fiber.beta2_ps2_per_m
        ssg = cfg_sg.sigma_sg_for(cfg_sg.filter)
        sp = cfg_sg.sigma_p_rad_per_ps
        gz = _g_function(z, cfg_sg)

        def direct(nu, dt, bracket):
            w = np.full(nu.size, nu[1] - nu[0])
            w[[0, -1]] *= 0.5
            Z1 = z[:, None, None, None]
            Z2 = z[None, :, None, None]
            NS = nu[None, None, :, None]
            NI = nu[None, None, None, :]
            vals = (gz[:, None, None, None] * np.conj(gz)[None, :, None, None]
                    * np.exp(-((NS + NI) ** 2) / (2 * sp**2))
                    * np.exp(-2 * (NS**4 + NI**4) / ssg**4)
                    * np.exp(-0.25j * b2 * (NS - NI) ** 2 * (Z1 - Z2)))
            if bracket:
                vals = vals * (1 - np.exp(-1j * (NI - NS) * dt))
            for dim, wt in [(3, w), (2, w), (1, zw), (0, zw)]:
                vals = np.tensordot(vals, wt, axes=([dim], [0]))
            return complex(vals)

        nu = np.linspace(-half, half, order + 1)
        assert step == pytest.approx(nu[1] - nu[0], rel=1e-14)
        engine_rates = hom._cosine_sums(np.array([3.0]), series)[0, :2]
        for rate, nodes in zip(engine_rates, (nu, nu[::2])):
            direct_rate = direct(nodes, 3.0, True).real / direct(nodes, 0.0, False).real
            assert rate == pytest.approx(direct_rate, rel=1e-10)


def g_phase_cycles(cfg, w_max=0.0):
    """Cycles of G's linear phase (2 gamma Pp - beta2 Delta^2 / 4) z over the fiber, plus
    those of e^{-i beta2 w z / 4} at w = w_max."""
    rate = (2.0 * cfg.fiber.gamma_per_W_m * cfg.pumps.peak_power_W
            - 0.25 * cfg.fiber.beta2_ps2_per_m * cfg.Delta_rad_per_ps**2)
    return (abs(rate) + 0.25 * abs(cfg.fiber.beta2_ps2_per_m) * w_max) * cfg.fiber.length_m / (
        2.0 * math.pi)


def fiber_rule(cfg, w_max=0.0, floor=_Z_ORDER):
    """A Gauss-Legendre rule (z, zw) over the fiber: ``floor`` nodes, or 3 per cycle of the
    phase of Phi(d / 2, -d / 2, z) e^{-2i gamma Pp z} at d^2 <= w_max when that is more."""
    order = max(floor, 3 * math.ceil(g_phase_cycles(cfg, w_max)))
    return gauss_legendre(order, -cfg.fiber.length_m, 0.0)


def closed_double_sum(cfg, delays):
    """The closed form as a double sum over fiber positions (z1, z2) of
    G(z1) G*(z2) I(z1 - z2; dt), one delay at a time, built only from G = Phi(0, 0, z)
    e^{-2i gamma Pp z} (up to a constant) and the closed-form kernel I, on
    :func:`fiber_rule`: at 34 cycles a 64 x 64 sum is 1.4e-8 off."""
    z, zw = fiber_rule(cfg)
    spm = 2.0 * cfg.fiber.gamma_per_W_m * cfg.pumps.peak_power_W
    gz = phi_closed(0.0, 0.0, z, cfg) * np.exp(-1j * spm * z) * zw
    zdiff = (z[:, None] - z[None, :]).ravel()
    s0, b2 = cfg.sigma_0_rad_per_ps, cfg.fiber.beta2_ps2_per_m
    den4 = 4.0 + b2**2 * zdiff**2 * s0**4
    k = (np.outer(gz, np.conj(gz)).ravel()
         * np.exp(0.5j * np.arctan(-0.5 * b2 * zdiff * s0**2)) / den4**0.25)
    a = (-2.0 * s0**2 + 1j * b2 * zdiff * s0**4) / den4
    num = [np.sum(k * (1.0 - np.exp(dt**2 * a))) for dt in delays]
    return np.maximum(np.real(num) / np.sum(k).real, 0.0)


def oracle_halfwidth(cfg):
    """Half-width of the oracle's own nu box: 6 times the largest, over both arms, of
    sigma for a Gaussian stage, sigma_sg / 2.4 for a quartic stage, and sigma_p / 3.  A
    cascade's box is thus its Gaussian stage's, wider than the engines'."""
    scales = [cfg.sigma_p_rad_per_ps / 3.0]
    for spec in (cfg.filter, cfg.filter.idler or cfg.filter):
        if spec.shape is not FilterShape.SUPERGAUSSIAN4:
            scales.append(cfg.sigma_for(spec))
        if spec.shape is not FilterShape.GAUSSIAN:
            scales.append(cfg.sigma_sg_for(spec) / 2.4)
    return 6.0 * max(scales)


@lru_cache(maxsize=4)
def gl_cross_weights(cfg, order):
    """Nodes nu, complex cross weights C = F(s,i) F*(i,s) w_s w_i and the baseline
    sum |F|^2 w_s w_i on a Gauss-Legendre grid of ``order`` nodes per axis over the box
    of :func:`oracle_halfwidth`: a rule and a box independent of the engines'.  Q sums
    phi_closed times the SPM phase on :func:`fiber_rule` with a floor of 32 nodes (within
    5e-14 of 256 or 8 per cycle over the property test's domain), not on the engines' z
    rule; Phi depends on nu_s + nu_i = s only through its factor e^{-s^2 / (4 sigma_p^2)}, so
    Q(nu_s, nu_i) = e^{-s^2 / (4 sigma_p^2)} Q(d / 2, -d / 2), d = nu_s - nu_i, and the
    z sum runs once per distinct |d|."""
    signal, idler = cfg.filter, cfg.filter.idler or cfg.filter
    half = oracle_halfwidth(cfg)
    nu, w = gauss_legendre(order, -half, half)
    arms = [hom.filter_amplitude(spec, nu, cfg) for spec in (signal, idler)]
    d, inverse = np.unique(np.abs(nu[:, None] - nu[None, :]), return_inverse=True)
    z, zw = fiber_rule(cfg, (2.0 * half) ** 2, floor=32)
    zw = zw * np.exp(-2j * cfg.fiber.gamma_per_W_m * cfg.pumps.peak_power_W * z)
    ridge = np.concatenate([phi_closed(0.5 * d[k:k + 1024, None], -0.5 * d[k:k + 1024, None],
                                           z, cfg) @ zw for k in range(0, d.size, 1024)])
    pump = np.exp(-(nu[:, None] + nu[None, :]) ** 2 / (4.0 * cfg.sigma_p_rad_per_ps**2))
    f_mat = pump * ridge[inverse].reshape(order, order) * np.outer(*arms)
    w2 = np.outer(w, w)
    return nu, f_mat * np.conj(f_mat.T) * w2, float(np.sum(np.abs(f_mat) ** 2 * w2))


def spectral_oracle(cfg, delays):
    """The complex double sum 1 - Re sum C(s,i) e^{-i(ni-ns)dt} / baseline on
    Gauss-Legendre grids of 192, 384 and 768 nodes per axis, returned once two
    successive orders agree within 1e-14 at every delay.  With e = e^{-i nu dt}
    each delay's sum is conj(e) . (C e): n exponentials per delay."""
    previous = None
    for order in (192, 384, 768):
        nu, cross, base = gl_cross_weights(cfg, order)
        e = np.exp(-1j * np.multiply.outer(np.asarray(delays, dtype=float), nu))
        rates = 1.0 - np.einsum("ij,ij->i", np.conj(e), e @ cross.T).real / base
        if previous is not None and np.max(np.abs(rates - previous)) <= 1e-14:
            return np.maximum(rates, 0.0)
        previous = rates
    raise AssertionError("the Gauss-Legendre oracle did not converge by 768 nodes")


def per_delay_reference(engine, cfg, delays, signal=None, idler=None):
    """One sum per delay: the closed engine's (z1, z2) double sum, or the converged
    complex spectral double sum of :func:`spectral_oracle`."""
    if engine == "gaussian":
        return closed_double_sum(cfg, delays)
    if engine == "asymmetric":
        cfg = replace(cfg, filter=replace(signal, idler=idler))
    return spectral_oracle(cfg, delays)


_SIG = FilterSpec(shape=FilterShape.GAUSSIAN, fwhm_nm=0.8)
_IDL = FilterSpec(shape=FilterShape.GAUSSIAN, fwhm_nm=0.88)


# the finest engine axis of fit_model's model for a 301-point scan over +-15 ps:
# the engine runs on [0, 40] ps at 1/64 ps, and two steps past it, and is mirrored
MODEL_AXIS = np.arange(2563) / 64.0

DELAY_AXES = {
    "default": np.round(np.arange(-150, 151) * 0.1, 10),
    "cli": np.round(np.arange(0, 201) * 0.15 - 15.0, 12),
    # the per-dataset grid that fit_model used before its model spline, for a
    # 301-point scan over +-15 ps with an initial center guess of 0.7 ps
    "fit": np.linspace(-15.0 - 0.7 - 9.5, 15.0 - 0.7 + 9.5, 1204),
    "model": MODEL_AXIS,
    "wide": np.linspace(-500.0, 500.0, 5001),
    "jittered": np.linspace(-20.0, 20.0, 401)
    + np.random.default_rng(3).uniform(-1e-6, 1e-6, 401),
    "one": np.array([3.3]),
    "two": np.array([-1.7, 4.1]),
}


@pytest.fixture
def fresh_tables():
    """An empty spectral-table cache before and after the test."""
    hom._spectral_tables.cache_clear()
    yield
    hom._spectral_tables.cache_clear()


class TestBatchedDelays:
    @pytest.mark.parametrize("engine,shape", [
        ("gaussian", "gaussian"), ("general", "gaussian"), ("general", "supergaussian4"),
        ("general", "cascade"), ("supergaussian", "supergaussian4"), ("asymmetric", "gaussian"),
    ])
    @pytest.mark.parametrize("axis", ["default", "nonuniform", "single", "multichunk"])
    def test_matches_per_delay_sum(self, engine, shape, axis):
        cfg = units.default_config(shape)
        filters = {"signal_filter": _SIG, "idler_filter": _IDL} if engine == "asymmetric" else {}
        delays = {
            "default": None,
            "nonuniform": np.cumsum(np.random.default_rng(5).uniform(0.01, 1.5, 40)) - 18.0,
            "single": np.array([2.5]),
            # every engine's per-delay row has at least 48 elements
            "multichunk": np.linspace(-20.0, 20.0, jsa._CHUNK_ELEMENTS // 48 + 3),
        }[axis]
        curve = hom.dip_curve(cfg, engine, delays_ps=delays, **filters)
        # the long axis is checked on a subsample spread over every chunk
        n = curve.delays_ps.size
        idx = np.unique(np.r_[0:n:37 if axis == "multichunk" else 1, n - 1])
        ref = per_delay_reference(engine, cfg, curve.delays_ps[idx],
                                  signal=_SIG, idler=_IDL)
        assert np.max(np.abs(curve.rates[idx] - ref)) <= 1e-12

    @pytest.mark.parametrize("axis", ["default", "multichunk"])
    def test_odd_order_matches_per_delay_sum(self, axis):
        # an odd start order of 47 rounds up to the even 48 the nested rule needs
        cfg = units.default_config("supergaussian4")
        delays = None if axis == "default" else np.linspace(-20.0, 20.0,
                                                            jsa._CHUNK_ELEMENTS // 48 + 3)
        curve = hom.dip_curve(cfg, "supergaussian", delays_ps=delays,
                              settings=QuadratureSettings(gl_order=47))
        even = hom.dip_curve(cfg, "supergaussian", delays_ps=delays,
                             settings=QuadratureSettings(gl_order=48))
        assert np.array_equal(curve.rates, even.rates)
        assert curve.quadrature == even.quadrature and curve.quadrature["nu_order"] % 48 == 0
        idx = np.unique(np.r_[0:curve.delays_ps.size:37 if delays is not None else 1,
                              curve.delays_ps.size - 1])
        ref = per_delay_reference("supergaussian", cfg, curve.delays_ps[idx])
        assert np.max(np.abs(curve.rates[idx] - ref)) <= 1e-14

    @settings(max_examples=15, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(log_length=st.floats(1.0, math.log10(2.0e4)),
           log_beta2=st.floats(-2.0, 0.0), sign=st.sampled_from((-1.0, 1.0)),
           pump_fwhm=st.floats(0.4, 1.6), filter_fwhm=st.floats(0.4, 1.6),
           shape=st.sampled_from(["gaussian", "supergaussian4", "cascade"]),
           mismatch=st.floats(0.05, 0.3))
    # the long-fiber corner: G's phase turns 53 cycles over 20 km
    @example(log_length=math.log10(2.0e4), log_beta2=0.0, sign=-1.0, pump_fwhm=0.4,
             filter_fwhm=0.8, shape="gaussian", mismatch=0.1)
    # the narrow corner, short fiber: the widest dip and its slowest quartic tail
    @example(log_length=1.0, log_beta2=-2.0, sign=1.0, pump_fwhm=0.4, filter_fwhm=0.4,
             shape="supergaussian4", mismatch=0.3)
    # the wide corner, long fiber: the narrowest cascade dip
    @example(log_length=math.log10(2.0e4), log_beta2=-2.0, sign=1.0, pump_fwhm=1.6,
             filter_fwhm=1.6, shape="cascade", mismatch=0.05)
    def test_property_over_physical_ranges(self, log_length, log_beta2, sign,
                                           pump_fwhm, filter_fwhm, shape, mismatch):
        cfg = units.build_config(
            length_m=10.0**log_length, beta2_ps2_per_km=sign * 10.0**log_beta2,
            gamma_per_W_m=1.8e-3, lambda_p1_nm=1555.92, lambda_p2_nm=1545.95,
            pump_fwhm_nm=pump_fwhm, peak_power_W=0.36,
            filter_shape=shape, filter_fwhm_nm=filter_fwhm)
        # outside the arctan-branch domain the engines refuse the config
        assume(abs(cfg.fiber.beta2_ps2_per_m) * cfg.fiber.length_m
               * cfg.sigma_p_rad_per_ps**2 < 1.0)
        half = max(15.0, 6.0 / cfg.sigma_0_rad_per_ps)
        # a plain axis, and one rounded like the benchmark's parameter sweep
        axes = (np.linspace(-half, half, 21), np.round(np.arange(-30, 31) * (half / 30.0), 12))
        # past the dip, offset from 0 and sparse: from 5 half every shape's tail is below 1e-15
        beyond = (np.round(np.arange(0, 31) * (half / 15.0) + 5.0 * half, 12),
                  np.array([-11.0, -6.0, 8.0]) * half)
        filters = {"signal_filter": FilterSpec(shape=cfg.filter.shape, fwhm_nm=filter_fwhm),
                   "idler_filter": FilterSpec(shape=cfg.filter.shape,
                                              fwhm_nm=filter_fwhm * (1.0 + mismatch))}
        engines = {"gaussian": ("gaussian", "general"),
                   "supergaussian4": ("general", "supergaussian"),
                   "cascade": ("general",)}[shape] + ("asymmetric",)
        for engine in engines:
            kw = filters if engine == "asymmetric" else {}

            def reference(x, engine=engine):
                return per_delay_reference(engine, cfg, x, signal=filters["signal_filter"],
                                           idler=filters["idler_filter"])
            for delays in axes:
                curve = hom.dip_curve(cfg, engine, delays_ps=delays, **kw)
                rates, ref = curve.rates, reference(delays)
                assert np.max(np.abs(rates - ref)) <= 1e-12
                assert np.max(np.abs(rates - rates[::-1])) <= 1e-12
                if delays is axes[0]:
                    assert_metrics_match_reference(curve, reference, ref)
            for delays in beyond:  # R -> 1 within the rule's record
                curve = hom.dip_curve(cfg, engine, delays_ps=delays, **kw)
                assert np.max(np.abs(curve.rates - 1.0)) <= (curve.quadrature["error_estimate"]
                                                             + curve.quadrature["abs_tol"])
        # exchange symmetry: the pump and H factors are symmetric sums, so it is exact
        grid = jsa.jsa_grid(cfg, n_points=33)
        assert np.array_equal(grid.values, grid.values.T)

    @pytest.mark.parametrize("order", [96, 192])
    def test_cosine_series_of_random_coefficients(self, order):
        # the split m = a M + b of _cosine_sums, with its padded tail, against
        # sum_m c_m cos(m step dt) in extended precision, for coefficients of
        # either sign that do not decay
        assert_cosine_series_exact(order, np.linspace(-20.0, 20.0, 101))

    def test_raised_order_asymmetric_cascade(self):
        # the dispersion of 15.8 km needs more than the first order: the nested
        # estimate sizes the rule to 192 intervals
        cfg = units.build_config(
            length_m=15770.75, beta2_ps2_per_km=0.96611, gamma_per_W_m=1.8e-3,
            lambda_p1_nm=1555.92, lambda_p2_nm=1545.95, pump_fwhm_nm=0.42202,
            peak_power_W=0.36, filter_shape="cascade", filter_fwhm_nm=0.75659)
        sig = FilterSpec(shape=FilterShape.CASCADE, fwhm_nm=0.75659)
        idl = FilterSpec(shape=FilterShape.CASCADE, fwhm_nm=0.75659 * 1.29512)
        delays = np.linspace(-40.0, 40.0, 41)
        curve = hom.dip_curve(cfg, "asymmetric", delays_ps=delays,
                              signal_filter=sig, idler_filter=idl)
        assert curve.quadrature["nu_order"] == 192
        ref = per_delay_reference("asymmetric", cfg, delays, signal=sig, idler=idl)
        assert np.max(np.abs(curve.rates - ref)) <= 1e-12


def assert_metrics_match_reference(curve, reference, ref):
    """dip_metrics of an engine curve against its per-delay reference, sampled as ``ref``
    on the curve's axis: the visibility is 1 - ref(0) within 1e-12, no rate lies below
    R(0) by more than abs_tol, and the FWHM is 2 w within its recorded estimate plus 1e-12
    relative, w Brent's root (xtol 1e-15) of ref - (1 + ref(0)) / 2 in the last sample
    pair of the right flank where ref crosses that level."""
    metrics = hom.dip_metrics(curve)
    r0 = float(reference(np.zeros(1))[0])
    assert abs(metrics.visibility - (1.0 - r0)) <= 1e-12
    assert np.all(curve.rates >= 1.0 - metrics.visibility - curve.quadrature["abs_tol"])
    level = 0.5 * (1.0 + r0)
    right = curve.delays_ps >= 0.0
    x, gap = curve.delays_ps[right], ref[right] - level
    k = np.flatnonzero(gap[:-1] * gap[1:] <= 0.0)[-1]
    w = _brentq(lambda t: float(reference(np.array([t]))[0]) - level, x[k], x[k + 1],
                xtol=1e-15)
    assert metrics.center_ps == 0.0
    assert abs(metrics.fwhm_ps - 2.0 * w) <= metrics.fwhm_error_ps + 1e-12 * 2.0 * w


def assert_cosine_series_exact(order, delays):
    """_cosine_sums of random coefficients on the default config's rule of ``order``
    within a few roundings of the largest angle of the extended-precision series: 1 -
    sum c_m cos(m step dt) for both rules, sum c'_m sin(m step dt) for the slope column,
    whose coefficients the table holds as i c'_m."""
    step, (inner, outer, coef) = hom._spectral_tables(units.default_config(), order)[:2]
    rng = np.random.default_rng(order)
    rows, a = coef.shape[0], outer.size
    coef = np.concatenate([rng.normal(size=(rows, 2 * a)), 1j * rng.normal(size=(rows, a))],
                          axis=1)
    packed = coef.T.reshape(3, -1)
    series = np.concatenate([packed[:2].real, packed[2:].imag]).astype(np.longdouble)
    angle = np.multiply.outer(delays.astype(np.longdouble),
                              np.arange(series.shape[1]) * np.longdouble(step))
    exact = np.column_stack([1.0 - np.cos(angle) @ series[:2].T, np.sin(angle) @ series[2]])
    rates = hom._cosine_sums(delays, (inner, outer, coef))
    bound = 8.0 * np.finfo(float).eps * np.sum(np.abs(series), axis=1) * (1.0 + np.max(angle))
    assert np.all(np.max(np.abs(rates - exact), axis=0) <= bound)


class TestPhasors:
    @pytest.mark.parametrize("axis", list(DELAY_AXES))
    def test_match_extended_precision(self, axis):
        # the phasors e^{i m step dt} that _cosine_sums takes directly, through the
        # whole series at the engine's start order: within a few roundings of the
        # largest angle, however far along the axis
        assert_cosine_series_exact(QuadratureSettings().gl_order, DELAY_AXES[axis])

    @pytest.mark.parametrize("axis", list(DELAY_AXES))
    def test_slope_matches_extended_precision_derivative(self, axis):
        # the slope column against R'(dt) = sum_m c_m m step sin(m step dt) of the fine
        # c_m of the rule that ran, in extended precision, within the bound of the series
        cfg, delays = units.default_config(), DELAY_AXES[axis]
        curve = hom.dip_curve(cfg, "general", delays_ps=delays)
        step, (_, _, coef) = hom._spectral_tables(cfg, curve.quadrature["nu_order"])[:2]
        fine = coef.T.real.reshape(3, -1)[0].astype(np.longdouble)
        m_step = np.arange(fine.size) * np.longdouble(step)
        angle = np.multiply.outer(delays.astype(np.longdouble), m_step)
        exact = np.sin(angle) @ (fine * m_step)
        slope = curve.rule(delays)[:, 2]
        bound = 8.0 * np.finfo(float).eps * np.sum(np.abs(fine * m_step)) * (1.0 + np.max(angle))
        assert np.max(np.abs(slope - exact)) <= bound


class TestSkewBound:
    @pytest.mark.parametrize("shape,order", [
        ("gaussian", 96), ("supergaussian4", 48), ("cascade", 96)])
    def test_bounds_per_delay_imaginary_part(self, shape, order):
        # the engines sum a real symmetric C (Q is exchange symmetric, the filters
        # real), so they drop the imaginary part of the complex per-delay sum and
        # the real part that Im(H) sin((ni - ns) dt), H = (C + C^H) / 2, adds.  On
        # the complex Gauss-Legendre weights, skew = 1/2 sum |C - C^H| + sum |Im H|
        # bounds both at every delay (|e|, |sin| <= 1), far below the tolerance; the
        # sums run in extended precision, whose rounding is eps * sum |C|
        cfg = units.default_config(shape)
        nu, cross, baseline = gl_cross_weights(cfg, order)
        herm_imag = 0.5 * (cross.imag - cross.imag.T)
        skew = 0.5 * np.sum(np.abs(cross - np.conj(cross.T))) + np.sum(np.abs(herm_imag))
        wide_nu, wide_cross = nu.astype(np.longdouble), cross.astype(np.clongdouble)
        herm_imag = herm_imag.astype(np.longdouble)
        imag, dropped = [], []
        for dt in np.linspace(-20.0, 20.0, 1204).astype(np.longdouble):
            e = np.exp(-1j * wide_nu * dt)
            imag.append(abs(np.sum(np.conj(e) * (e @ wide_cross.T)).imag))
            dropped.append(abs(np.sum(np.conj(e) * (e @ herm_imag.T)).imag))
        rounding = np.finfo(np.longdouble).eps * np.sum(np.abs(cross))
        assert 0.0 < max(imag) <= skew + rounding
        assert np.max(np.add(imag, dropped)) <= skew + rounding
        assert skew <= hom._ABS_TOL * baseline


class TestErrorEstimate:
    # the per-dataset grid that fit_model used before its model spline, for a
    # 301-point scan over +-15 ps with an initial center guess of 0.7 ps
    FIT_GRID = np.linspace(-15.0 - 0.7 - 9.5, 15.0 - 0.7 + 9.5, 1204)

    @pytest.mark.parametrize("shape,engine,delays,key,order", [
        ("gaussian", "general", None, "nu_order", 96),
        ("cascade", "general", FIT_GRID, "nu_order", 96),
        ("gaussian", "gaussian", MODEL_AXIS, "lag_orders", [8, 6]),
        ("gaussian", "general", MODEL_AXIS, "nu_order", 96),
        ("supergaussian4", "general", MODEL_AXIS, "nu_order", 96),
        ("supergaussian4", "supergaussian", MODEL_AXIS, "nu_order", 96),
        ("cascade", "general", MODEL_AXIS, "nu_order", 96)],
        ids=["gaussian", "cascade", "model-closed", "model-gaussian", "model-supergaussian4",
             "model-supergaussian", "model-cascade"])
    def test_orders_used(self, shape, engine, delays, key, order):
        curve = hom.dip_curve(units.default_config(shape), engine, delays_ps=delays)
        assert curve.quadrature[key] == order
        assert curve.quadrature["error_estimate"] <= hom._ABS_TOL

    def test_unresolvable_axis_raises(self):
        # +-5,000 ps needs a step in nu below pi / 5,000 ps: more than 2,048 intervals
        with pytest.raises(hom.AccuracyError, match="start order 3072 is past the largest"):
            hom.dip_curve(units.default_config(), "general",
                          delays_ps=np.linspace(-5000.0, 5000.0, 2001))

    def test_perturbed_coarse_rule_raises(self, monkeypatch):
        tables = hom._spectral_tables

        def perturbed(cfg, n):
            # the nested rule's c_0 (row 0, column A of the packed (M, 3 A) block) moves
            # by 1e-9 of the baseline, a thousand times the tolerance, at every order
            step, (inner, outer, coef), kappa, z_record = tables(cfg, n)
            coef = coef.copy()
            coef[0, outer.size] += 1e-9
            return step, (inner, outer, coef), kappa, z_record

        monkeypatch.setattr(hom, "_spectral_tables", perturbed)
        with pytest.raises(hom.AccuracyError, match="error estimate"):
            hom.dip_curve(units.default_config(), "general")

    @pytest.mark.parametrize("engine,sums", [("gaussian", "_lag_sums"),
                                             ("general", "_cosine_sums")])
    def test_negative_rate_beyond_abs_tol_raises(self, monkeypatch, engine, sums):
        # fine and coarse rates 3 abs_tol low at every delay: the search passes, and
        # dip_curve refuses R(0) = -3e-12, naming it and kappa
        original = getattr(hom, sums)
        monkeypatch.setattr(hom, sums, lambda *args: original(*args) - [3e-12, 3e-12, 0.0])
        with pytest.raises(hom.AccuracyError, match=rf"^{engine} engine: negative rate "
                           r"-3\.000e-12 beyond abs_tol 1\.0e-12 \(kappa = 1\.\d{3}e\+00\)$"):
            hom.dip_curve(units.default_config(), engine)

    def test_negative_rate_within_abs_tol_is_clamped(self, monkeypatch):
        lag_sums = hom._lag_sums
        monkeypatch.setattr(hom, "_lag_sums", lambda *args: lag_sums(*args) - [5e-13, 5e-13, 0.0])
        curve = hom.dip_curve(units.default_config(), "gaussian")
        assert curve.rule(np.zeros(1))[0, 0] == -5e-13  # the rule is not clamped
        assert curve.rates[curve.delays_ps == 0.0].tolist() == [0.0]

    def test_order_independent_of_call_history(self, fresh_tables):
        cfg = units.default_config()
        first = hom.dip_curve(cfg, "general", delays_ps=self.FIT_GRID)
        wide = hom.dip_curve(cfg, "general", delays_ps=np.linspace(-200.0, 200.0, 801))
        again = hom.dip_curve(cfg, "general", delays_ps=self.FIT_GRID)
        assert wide.quadrature["nu_order"] > first.quadrature["nu_order"]
        assert np.array_equal(first.rates, again.rates)
        assert first.quadrature == again.quadrature


class TestAliasFreeOrder:
    # the cosine series repeats with period P = 2 pi / step in the delay, and its nested
    # rule with P / 2, so both read the dip again at P: at nu order 96 on the default
    # config P = 133.5 ps, where the rule once returned 0 with an estimate of 1e-16
    def period(self, cfg):
        return 2.0 * math.pi * 96 / (2.0 * hom._nu_half(cfg))

    def test_single_delay_at_period_matches_closed(self, cfg):
        delays = [self.period(cfg)]
        general = hom.dip_curve(cfg, "general", delays_ps=delays)
        assert math.pi * general.quadrature["nu_order"] / (2.0 * general.quadrature[
            "nu_halfwidth"]) > delays[0]
        closed = hom.dip_curve(cfg, "gaussian", delays_ps=delays).rates
        assert abs(general.rates[0] - closed[0]) <= 1e-12

    def test_offset_axis_matches_closed(self, cfg):
        # homsim dip --engine general --delay-min 118.5 --delay-max 148.5: flat, no dip
        delays = np.round(np.arange(0, 301) * 0.1 + 118.5, 12)
        assert delays[0] < self.period(cfg) < delays[-1]
        general = hom.dip_curve(cfg, "general", delays_ps=delays)
        closed = hom.dip_curve(cfg, "gaussian", delays_ps=delays).rates
        assert np.max(np.abs(general.rates - closed)) <= 1e-12
        with pytest.raises(hom.AnalysisError, match="no dip found"):
            hom.dip_metrics(general)


class TestConvergedRule:
    # each of these fails on a fixed Gauss-Legendre rule of 96 (48) nodes per axis
    def test_cascade_matches_oracle(self):
        cfg = units.default_config("cascade")
        curve = hom.dip_curve(cfg, "general")
        assert np.max(np.abs(curve.rates - spectral_oracle(cfg, curve.delays_ps))) <= 1e-13

    def test_cli_default_supergaussian_matches_oracle(self):
        cfg = units.default_config("supergaussian4")
        delays = np.round(np.arange(0, 301) * 0.1 - 15.0, 12)  # homsim dip's default axis
        curve = hom.dip_curve(cfg, "supergaussian", delays_ps=delays,
                              settings=QuadratureSettings())
        assert np.max(np.abs(curve.rates - spectral_oracle(cfg, delays))) <= 1e-13

    def test_narrow_pump_wide_filter_matches_closed(self):
        cfg = units.build_config(**{**units.REFERENCE_PARAMS, "pump_fwhm_nm": 0.4,
                                    "filter_fwhm_nm": 1.6})
        general = hom.dip_curve(cfg, "general").rates
        assert np.max(np.abs(general - hom.dip_curve(cfg, "gaussian").rates)) <= 1e-12

    @pytest.mark.parametrize("beta2", [-0.5, -0.7, -1.0])
    def test_long_fiber_corner_matches_closed(self, beta2):
        # G's phase turns 29 to 53 cycles over 20 km with a 0.4 nm pump: a fixed
        # 64-node z rule of H is 8.7e-3 off at -1 ps^2/km, the searched one is not
        cfg = units.build_config(**{**units.REFERENCE_PARAMS, "length_m": 20000.0,
                                    "beta2_ps2_per_km": beta2, "pump_fwhm_nm": 0.4})
        general = hom.dip_curve(cfg, "general")
        assert general.quadrature["z_error_estimate"] <= hom._ABS_TOL
        closed = hom.dip_curve(cfg, "gaussian").rates
        assert np.max(np.abs(general.rates - closed)) <= 1e-12

    def test_wide_axis_matches_closed(self, cfg):
        delays = np.linspace(-500.0, 500.0, 5001)
        general = hom.dip_curve(cfg, "general", delays_ps=delays).rates
        closed = hom.dip_curve(cfg, "gaussian", delays_ps=delays).rates
        assert np.max(np.abs(general - closed)) <= 1e-12


def property_draws(seed, count, shape):
    """``count`` seeded (config, mismatched filter pair) draws from the domain of
    test_property_over_physical_ranges, inside the arctan-branch guard."""
    rng, draws = np.random.default_rng(seed), []
    while len(draws) < count:
        filter_fwhm = rng.uniform(0.4, 1.6)
        cfg = units.build_config(
            length_m=10.0 ** rng.uniform(1.0, math.log10(2.0e4)),
            beta2_ps2_per_km=rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 0.0),
            gamma_per_W_m=1.8e-3, lambda_p1_nm=1555.92, lambda_p2_nm=1545.95,
            pump_fwhm_nm=rng.uniform(0.4, 1.6), peak_power_W=0.36,
            filter_shape=shape, filter_fwhm_nm=filter_fwhm)
        mismatch = rng.uniform(0.05, 0.3)
        if abs(cfg.fiber.beta2_ps2_per_m) * cfg.fiber.length_m * cfg.sigma_p_rad_per_ps**2 < 1.0:
            draws.append((cfg, FilterSpec(shape=cfg.filter.shape, fwhm_nm=filter_fwhm),
                          FilterSpec(shape=cfg.filter.shape, fwhm_nm=filter_fwhm * (1.0 + mismatch))))
    return draws


class TestCascadeBox:
    # a cascade's nu box is its quartic stage's, 6 sigma_sg / 2.4, not its Gaussian
    # stage's 6 sigma (more than twice as wide), unless the pump's is wider still
    @staticmethod
    def gaussian_stage_box(spec, cfg):
        return hom._NU_BOX_SIGMAS * max(cfg.sigma_for(spec), cfg.sigma_p_rad_per_ps / 3.0)

    def test_matches_gaussian_stage_box(self, monkeypatch, fresh_tables):
        draws, tighter = property_draws(2026, 30, "cascade"), 0
        for cfg, sig, idl in draws:
            half = max(15.0, 6.0 / cfg.sigma_0_rad_per_ps)
            delays = np.round(np.arange(-30, 31) * (half / 30.0), 12)
            runs = [("general", {}), ("asymmetric", {"signal_filter": sig, "idler_filter": idl})]
            tight = [hom.dip_curve(cfg, engine, delays, **kw) for engine, kw in runs]
            with monkeypatch.context() as patch:
                patch.setattr(hom, "_nu_halfwidth", self.gaussian_stage_box)
                hom._spectral_tables.cache_clear()
                wide = [hom.dip_curve(cfg, engine, delays, **kw) for engine, kw in runs]
            hom._spectral_tables.cache_clear()
            for t, w in zip(tight, wide):
                assert t.quadrature["nu_halfwidth"] <= w.quadrature["nu_halfwidth"]
                tighter += t.quadrature["nu_halfwidth"] < w.quadrature["nu_halfwidth"]
                assert np.max(np.abs(t.rates - w.rates)) <= 1e-13
            # each arm's amplitude at the edge of its own box
            for spec in (cfg.filter, sig, idl):
                edge = hom._nu_half(replace(cfg, filter=spec))
                assert hom.filter_amplitude(spec, edge, cfg) <= math.exp(-39.0)
        # the pump's support sets the box of only a few of the two runs per draw
        assert tighter > len(draws)


_FOLD_ENGINES = pytest.mark.parametrize("engine,shape", [
    ("gaussian", "gaussian"), ("general", "gaussian"), ("supergaussian", "supergaussian4"),
    ("general", "cascade"), ("asymmetric", "gaussian")])


class TestFold:
    # R is even in the delay: dip_curve runs the engine once per distinct |dt|
    @staticmethod
    def curve(engine, shape, delays):
        filters = {"signal_filter": _SIG, "idler_filter": _IDL} if engine == "asymmetric" else {}
        return hom.dip_curve(units.default_config(shape), engine, delays, **filters)

    @_FOLD_ENGINES
    def test_default_axis_exactly_even(self, engine, shape):
        rates = self.curve(engine, shape, None).rates
        assert np.array_equal(rates, rates[::-1])

    @_FOLD_ENGINES
    def test_mixed_axis_is_the_folded_axis(self, engine, shape):
        delays = np.array([-7.0, -3.0, 0.5, 3.0, 7.0])
        curve = self.curve(engine, shape, delays)
        assert np.array_equal(curve.delays_ps, delays)
        folded = self.curve(engine, shape, [0.5, 3.0, 7.0])
        assert np.array_equal(curve.rates, folded.rates[[2, 1, 0, 1, 2]])
        assert curve.quadrature == folded.quadrature
        # one delay alone sums its BLAS products in another order: within the rounding
        # floor of the search's tolerance
        rounding = quadrature._ROUNDING_FACTOR * curve.quadrature["kappa"] * np.finfo(float).eps
        for dt, rate in zip(delays, curve.rates):
            assert abs(rate - self.curve(engine, shape, [abs(dt)]).rates[0]) <= rounding

    @_FOLD_ENGINES
    def test_engine_sees_each_absolute_delay_once(self, engine, shape, monkeypatch):
        seen = []
        runner = "_closed_rates" if engine == "gaussian" else "_spectral_rates"
        original = getattr(hom, runner)
        monkeypatch.setattr(hom, runner, lambda delays, *args: seen.append(delays)
                            or original(delays, *args))
        self.curve(engine, shape, MODEL_AXIS)  # nonnegative: the fold is the identity
        self.curve(engine, shape, None)  # the default axis: its 151 nonnegative delays
        assert np.array_equal(seen[0], MODEL_AXIS)
        assert np.array_equal(seen[1], DELAY_AXES["default"][150:])


# the config of test_raised_order_asymmetric_cascade, with a Gaussian filter
_LONG_FIBER = dict(length_m=15770.75, beta2_ps2_per_km=0.96611, gamma_per_W_m=1.8e-3,
                   lambda_p1_nm=1555.92, lambda_p2_nm=1545.95, pump_fwhm_nm=0.42202,
                   peak_power_W=0.36, filter_shape="gaussian", filter_fwhm_nm=0.75659)


# G's phase turns one cycle over 5.9 km and the lag sum cancels by a factor
# kappa ~ 3e5, so rounding alone is about kappa * eps per rate
_ILL_CONDITIONED = {**units.REFERENCE_PARAMS, "length_m": 5894.336338976331,
                    "beta2_ps2_per_km": 0.015058606919842203,
                    "pump_fwhm_nm": 0.49604523708036974, "filter_fwhm_nm": 1.0772727591213105}
_ILL_DELAYS = np.linspace(-15.0, 15.0, 301)


class TestClosedEngine:
    @pytest.mark.parametrize("params", [
        units.REFERENCE_PARAMS,
        # G's phase turns 34 and 19 cycles over these fibers
        _LONG_FIBER,
        {**units.REFERENCE_PARAMS, "length_m": 20000.0, "beta2_ps2_per_km": -0.3},
    ], ids=["default", "15.77km", "20km"])
    def test_matches_fiber_position_double_sum(self, params):
        cfg = units.build_config(**params)
        delays = np.linspace(-20.0, 20.0, 1204)
        rates = hom.dip_curve(cfg, "gaussian", delays_ps=delays).rates
        assert np.max(np.abs(rates - closed_double_sum(cfg, delays))) <= 1e-12

    def test_ill_conditioned_config_agrees_or_reports_kappa(self):
        cfg = units.build_config(**_ILL_CONDITIONED)
        general = hom.dip_curve(cfg, "general", delays_ps=_ILL_DELAYS).rates
        try:
            closed = hom.dip_curve(cfg, "gaussian", delays_ps=_ILL_DELAYS)
        except hom.AccuracyError as exc:
            assert "kappa" in str(exc) and "imaginary" not in str(exc)
        else:
            rounding = quadrature._ROUNDING_FACTOR * closed.quadrature["kappa"]
            bound = 1e-12 + rounding * np.finfo(float).eps
            assert np.max(np.abs(closed.rates - general)) <= bound

    def test_too_many_phase_cycles_raise(self):
        # 100 W over 20 km: the SPM phase alone turns about 1,150 cycles
        cfg = units.build_config(**{**units.REFERENCE_PARAMS, "length_m": 20000.0,
                                    "peak_power_W": 100.0})
        with pytest.raises(hom.AccuracyError, match="cycles over the fiber"):
            hom.dip_curve(cfg, "gaussian")

    def test_unresolvable_filter_raises_before_any_lag_table(self, monkeypatch):
        # a 1e30 nm filter turns beta2 D sigma_0^2 through ~1e57 cycles over the fiber:
        # refused at the start order, not after a search up to 1,024 lags
        orders = []
        lag_tables = hom._lag_tables.__wrapped__
        monkeypatch.setattr(hom, "_lag_tables",
                            lambda cfg, order: orders.append(order) or lag_tables(cfg, order))
        cfg = units.build_config(**{**units.REFERENCE_PARAMS, "filter_fwhm_nm": 1e30})
        with pytest.raises(hom.AccuracyError, match="gaussian closed-form engine: .* cycles "
                           "over the fiber need more than 1024 nodes"):
            hom.dip_curve(cfg, "gaussian")
        assert orders == []

    def test_under_resolved_start_doubles_to_converged(self, monkeypatch):
        # 8 lags at 34 cycles of G's phase: the search must double its way to the answer
        monkeypatch.setattr(hom, "_nodes_per_cycle", lambda cycles, label: 8)
        cfg = units.build_config(**_LONG_FIBER)
        delays = np.linspace(-20.0, 20.0, 301)
        curve = hom.dip_curve(cfg, "gaussian", delays_ps=delays)
        assert curve.quadrature["lag_orders"][0] > 8
        assert np.max(np.abs(curve.rates - closed_double_sum(cfg, delays))) <= 1e-12

    def test_rounding_floor_stops_the_search(self, monkeypatch):
        # from 64 lags on the kappa ~ 3e5 config the estimate grows with the order
        # (rounding, not truncation): the search stops after one doubling, not at the cap
        orders = []
        lag_tables = hom._lag_tables.__wrapped__
        monkeypatch.setattr(hom, "_nodes_per_cycle", lambda cycles, label: 64)
        monkeypatch.setattr(hom, "_lag_tables",
                            lambda cfg, order: orders.append(order) or lag_tables(cfg, order))
        with pytest.raises(hom.AccuracyError, match="error estimate .*kappa.*rounding"):
            hom.dip_curve(units.build_config(**_ILL_CONDITIONED), "gaussian",
                          delays_ps=_ILL_DELAYS)
        assert max(orders) <= 128

    @pytest.mark.parametrize("params", [units.REFERENCE_PARAMS, _LONG_FIBER],
                             ids=["default", "15.77km"])
    def test_slope_matches_central_difference(self, params):
        # the rule's slope column against the 5-point central difference of its fine
        # column, h = 1e-3 ps: h^4 truncation and about 1.5 eps kappa / h of rounding
        curve = hom.dip_curve(units.build_config(**params), "gaussian")
        x, h = np.array([0.0, 0.3, 1.0, 3.0, 3.13, 5.0, 8.0, 15.0]), 1e-3

        def fine(t):
            return curve.rule(t)[:, 0]
        central = (fine(x - 2 * h) - 8 * fine(x - h) + 8 * fine(x + h)
                   - fine(x + 2 * h)) / (12 * h)
        assert curve.rule(x)[0].tolist() == [0.0, 0.0, 0.0]  # R(0) of both rules, R' as R is even
        assert np.max(np.abs(curve.rule(x)[:, 2] - central)) <= 1e-11


def metric_curves():
    """The default gaussian, general, supergaussian4 and cascade curves and a mismatched one."""
    runs = [("gaussian", "gaussian", {}), ("gaussian", "general", {}),
            ("supergaussian4", "supergaussian", {}), ("cascade", "general", {}),
            ("gaussian", "asymmetric", {"signal_filter": _SIG, "idler_filter": _IDL})]
    return [hom.dip_curve(units.default_config(shape), engine, **kw) for shape, engine, kw in runs]


def sweep_curves(seed, per_shape):
    """Curves of ``per_shape`` property draws of each filter shape, on 301 delays over
    +-max(15 ps, 6 / sigma_0) rounded like the benchmark's parameter sweep: every engine
    of the shape, then the mismatched pair on ``asymmetric``."""
    engines = {"gaussian": ("gaussian", "general"), "supergaussian4": ("general", "supergaussian"),
               "cascade": ("general",)}
    curves = []
    for shape in engines:
        for cfg, sig, idl in property_draws(seed, per_shape, shape):
            half = max(15.0, 6.0 / cfg.sigma_0_rad_per_ps)
            delays = np.round(np.arange(-150, 151) * (half / 150.0), 12)
            curves += [hom.dip_curve(cfg, engine, delays) for engine in engines[shape]]
            curves.append(hom.dip_curve(cfg, "asymmetric", delays,
                                        signal_filter=sig, idler_filter=idl))
    return curves


class TestNewtonHalfLevel:
    @staticmethod
    def counted(curve):
        """dip_metrics of the curve and the number of calls it made of the curve's rule."""
        calls = []

        def rule(x):
            calls.append(x.size)
            return curve.rule(x)
        return hom.dip_metrics(replace(curve, rule=rule)), len(calls)

    @staticmethod
    def brent_width(curve):
        """_brentq's w on the fine rule, in the outermost pair of the right flank that
        brackets (1 + R(0)) / 2."""
        level = 0.5 * (1.0 + max(float(curve.rule(np.zeros(1))[0, 0]), 0.0))
        right = curve.delays_ps >= 0.0
        x, gap = curve.delays_ps[right], curve.rates[right] - level
        k = np.flatnonzero(gap[:-1] * gap[1:] <= 0.0)[-1]
        return _brentq(lambda t: curve.rule(np.array([t]))[0, 0] - level, x[k], x[k + 1])

    def test_default_curves(self):
        for curve in metric_curves():
            metrics, calls = self.counted(curve)
            assert calls <= 4
            assert abs(0.5 * metrics.fwhm_ps - self.brent_width(curve)) <= 4e-12

    def test_sweep_draws(self):
        for curve in sweep_curves(2029, 12):  # 36 draws, 96 curves
            metrics, calls = self.counted(curve)
            assert calls <= 4
            assert abs(0.5 * metrics.fwhm_ps - self.brent_width(curve)) <= 4e-12


class TestDipMetrics:
    def test_ideal_gaussian_reference(self, cfg):
        metrics = hom.dip_metrics(hom.dip_curve(cfg, "gaussian"))
        assert metrics.visibility == pytest.approx(1.0, abs=1e-3)
        assert metrics.fwhm_ps == pytest.approx(6.4, abs=0.3)
        assert metrics.center_ps == 0.0 and metrics.baseline == 1.0

    def test_engine_curve_half_level_from_its_baseline(self, cfg):
        # a +-2 ps scan of the 6.25 ps dip never reaches the baseline: from the
        # engine's baseline of 1 the half level is unbracketed
        curve = hom.dip_curve(cfg, "gaussian", delays_ps=np.linspace(-2.0, 2.0, 41))
        with pytest.raises(hom.AnalysisError, match="not bracketed"):
            hom.dip_metrics(curve)

    def test_flat_curve_raises(self):
        delays = np.linspace(-10, 10, 101)
        curve = hom.DipCurve(delays_ps=delays, rates=np.ones_like(delays), engine="test",
                             rule=even_rule(np.ones_like, np.zeros_like))
        with pytest.raises(hom.AnalysisError):
            hom.dip_metrics(curve)

    def test_synthetic_gaussian_dip(self):
        # the analytic dip crosses its half level 0.55 at tau0 sqrt(2 ln 2) exactly
        tau0 = 2.5

        def f(x):
            return 1.0 - 0.9 * np.exp(-(x**2) / (2 * tau0**2))

        def df(x):
            return 0.9 * x / tau0**2 * np.exp(-(x**2) / (2 * tau0**2))
        delays = np.linspace(-20, 20, 801)
        curve = hom.DipCurve(delays_ps=delays, rates=f(delays), engine="test",
                             rule=even_rule(f, df))
        metrics = hom.dip_metrics(curve)
        assert metrics.visibility == pytest.approx(0.9, rel=1e-15)
        assert metrics.fwhm_ps == pytest.approx(2 * tau0 * math.sqrt(2 * math.log(2)), rel=1e-12)
        assert metrics.center_ps == 0.0 and metrics.fwhm_error_ps == 0.0

    @pytest.mark.parametrize("where", ["edge_rate", "inner_rate", "delay"])
    def test_non_finite_curve_rejected(self, where):
        # a NaN edge rate once surfaced as "dip minimum lies inside the baseline
        # margin", and a non-finite value inside as the spline's complaint
        delays = np.linspace(-10.0, 10.0, 101)
        rates = 1.0 - 0.9 * np.exp(-(delays**2) / 8.0)
        if where == "edge_rate":
            rates[0] = np.nan
        elif where == "inner_rate":
            rates[40] = np.inf
        else:
            delays[-1] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            hom.DipCurve(delays_ps=delays, rates=rates, engine="test", rule=None)

    def test_unbracketed_dip_raises(self):
        delays = np.linspace(0, 5, 51)
        rates = 1.0 - 0.9 * np.exp(-((delays - 5.0) ** 2) / 2.0)  # dip at the edge
        curve = hom.DipCurve(delays_ps=delays, rates=rates, engine="test", rule=None)
        with pytest.raises(hom.AnalysisError):
            hom.dip_metrics(curve)

    @pytest.mark.parametrize("case", ["three_crossings", "sample_on_level"])
    def test_widest_crossing_pair_matches_scipy(self, case):
        # the widest pair of half-level crossings, against scipy's Brent's method on
        # the analytic dip at every sign change, plus any sample on the level
        optimize = pytest.importorskip("scipy.optimize")

        # a bump on each flank rises above the half level and falls back
        bumps = [(0.6, 5.0, 0.5), (0.7, 6.5, 0.8)]

        def f(x):
            if case == "sample_on_level":
                return 1.0 - np.exp(-x**2 / 8.0)
            return 1.0 - 0.9 * np.exp(-x**2 / 8.0) - sum(
                a * (np.exp(-(x - c) ** 2 / s) + np.exp(-(x + c) ** 2 / s)) for a, c, s in bumps)

        def df(x):
            if case == "sample_on_level":
                return x / 4.0 * np.exp(-x**2 / 8.0)
            return 0.9 * x / 4.0 * np.exp(-x**2 / 8.0) + sum(
                2.0 * a / s * ((x - c) * np.exp(-(x - c) ** 2 / s)
                               + (x + c) * np.exp(-(x + c) ** 2 / s)) for a, c, s in bumps)
        delays = np.round(np.arange(-100, 101) * 0.2, 10)
        rates = f(delays)
        if case == "sample_on_level":
            # the minimum sits at 0 ps and the baseline is exactly 1, so the level is 0.5
            rates[[88, 112]] = 0.5
        curve = hom.DipCurve(delays_ps=delays, rates=rates, engine="test",
                             rule=even_rule(f, df))
        metrics = hom.dip_metrics(curve)

        level = 0.5 * (1.0 + f(0.0))
        gap = rates - level
        flips = np.flatnonzero(gap[:-1] * gap[1:] < 0)
        roots = np.r_[[optimize.brentq(lambda x: f(x) - level, delays[i], delays[i + 1],
                                       xtol=1e-15) for i in flips], delays[gap == 0.0]]
        left, right = roots[roots < 0.0], roots[roots > 0.0]
        if case == "three_crossings":
            assert left.size == right.size == 3
        else:
            assert level == 0.5 and np.array_equal(np.sort(roots), [-2.4, 2.4])
        assert metrics.center_ps == 0.0
        assert metrics.fwhm_ps == pytest.approx(right.max() - left.min(), abs=1e-11)
        assert metrics.half_level_crossings == (left.size, right.size)


class TestCurveIO:
    def test_csv(self, cfg, tmp_path):
        curve = hom.dip_curve(cfg, "gaussian", delays_ps=np.linspace(-5, 5, 11))
        path = tmp_path / "curve.csv"
        hom.write_curve_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "delay_ps,rate_normalized"
        assert len(lines) == 12

    def test_csv_bytes_match_per_row_format(self, tmp_path):
        # whole-array formatting must give the bytes of csv.writer on
        # per-value f"{x:.17g}" strings, for signed zeros, subnormals and
        # integral values alike
        special = [-0.0, 5e-324, 2.5e-310, 1.0, 3.0, 1e16, 0.1, 123456789.0, 1.0 / 3.0]
        rng = np.random.default_rng(3)

        def per_row(path, header, rows):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([f"{x:.17g}" for x in row])

        delays = np.array([-3.0, -1e-300, -0.0, 5e-324, 0.5, 2.0, 7.0, 1e16, 1.5e16])
        curve = hom.DipCurve(delays_ps=delays, rates=np.array(special), engine="test", rule=None)
        hom.write_curve_csv(curve, tmp_path / "curve.csv")
        per_row(tmp_path / "curve_ref.csv", ["delay_ps", "rate_normalized"],
                zip(curve.delays_ps, curve.rates))
        assert (tmp_path / "curve.csv").read_bytes() == (tmp_path / "curve_ref.csv").read_bytes()

        # the special values plus enough generic ones that the last-bit
        # rounding of |q|^2 is exercised
        values = rng.normal(size=(60, 60)) + 1j * rng.normal(size=(60, 60))
        values[0, :9] = np.array(special) + 1j * np.array(special[::-1])
        grid = jsa.AmplitudeGrid(nu_s_axis=np.linspace(-1.0, 1.0, 60),
                                 nu_i_axis=np.linspace(-2.0, 1.0, 60), values=values)
        jsa.write_grid_csv(grid, tmp_path / "grid.csv")
        per_row(tmp_path / "grid_ref.csv", ["nu_s", "nu_i", "re_q", "im_q", "abs2_q"],
                ((ns, ni, q.real, q.imag, abs(q) ** 2)
                 for ns, row in zip(grid.nu_s_axis, grid.values)
                 for ni, q in zip(grid.nu_i_axis, row)))
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "grid_ref.csv").read_bytes()

    def test_metrics_json(self, cfg):
        import json
        metrics = hom.dip_metrics(hom.dip_curve(cfg, "gaussian"))
        doc = json.loads(json.dumps(hom.metrics_record(metrics), allow_nan=False))
        assert doc == {"visibility": metrics.visibility, "fwhm_ps": metrics.fwhm_ps,
                       "center_ps": 0.0, "baseline": 1.0, "engine": "gaussian",
                       "half_level_crossings": [1, 1], "fwhm_error_ps": metrics.fwhm_error_ps}
        assert 0.0 <= metrics.fwhm_error_ps <= 1e-10
        unbracketed = hom.metrics_record(replace(metrics, fwhm_ps=math.nan,
                                                 fwhm_error_ps=math.inf))
        assert unbracketed["fwhm_ps"] is None and unbracketed["fwhm_error_ps"] is None


class TestValidation:
    def test_closed_engine_rejects_non_gaussian(self, cfg_sg):
        with pytest.raises(ValueError):
            _rate("gaussian", 1.0, cfg_sg)

    def test_supergaussian_engine_rejects_other_filters(self, cfg):
        # the quartic engine must not silently replace the configured filter
        with pytest.raises(ValueError):
            hom.dip_curve(cfg, "supergaussian")
        mismatched = units.build_config(
            length_m=300.0, beta2_ps2_per_km=-0.116, gamma_per_W_m=1.8e-3,
            lambda_p1_nm=1555.92, lambda_p2_nm=1545.95, pump_fwhm_nm=0.8,
            peak_power_W=0.36, filter_shape="supergaussian4", idler_filter_fwhm_nm=0.9)
        with pytest.raises(ValueError):
            _rate("supergaussian", 1.0, mismatched)

    def test_unknown_engine(self, cfg):
        with pytest.raises(ValueError):
            hom.dip_curve(cfg, "montecarlo")

    def test_cascade_supported_by_general(self):
        cfg = units.default_config("cascade")
        r = _rate("general", 3.0, cfg)
        assert 0.0 < r < 1.0
        assert _rate("general", 0.0, cfg) <= 1e-12
