import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from homsim import fitdata, hom, jsa, quadrature, units
from homsim.quadrature import QuadratureSettings, gauss_legendre
from oracles import AccuracyError, _brentq, integrate_1d


def test_gauss_legendre_rule_is_cached_and_read_only():
    x, w = gauss_legendre(37, -2.0, 3.0)
    again = gauss_legendre(37, -2.0, 3.0)
    assert np.array_equal(x, again[0]) and np.array_equal(w, again[1])
    x[:] = 0.0
    w[:] = 0.0
    assert np.array_equal(gauss_legendre(37, -2.0, 3.0)[0], again[0])
    assert np.array_equal(gauss_legendre(37, -2.0, 3.0)[1], again[1])
    unit = quadrature._unit_rule(37)
    assert all(np.array_equal(a, b) for a, b in zip(unit, leggauss(37)))
    assert not unit[0].flags.writeable and not unit[1].flags.writeable
    with pytest.raises(ValueError):
        unit[0][0] = 0.0


@pytest.mark.parametrize("order", [47, 48, 96, 149])
def test_symmetric_interval_nodes_are_exactly_antisymmetric(order):
    # the spectral engines fold node k onto node n - 1 - k
    nu, w = gauss_legendre(order, -3.7, 3.7)
    assert np.array_equal(nu, -nu[::-1]) and np.array_equal(w, w[::-1])


def test_complex_exponential():
    res = integrate_1d(lambda x: np.exp(1j * x), 0.0, 1.0)
    expected = math.sin(1.0) + 1j * (1.0 - math.cos(1.0))
    assert abs(res.value - expected) < 1e-12


def test_truncated_gaussian():
    sigma = 1.0
    res = integrate_1d(lambda x: np.exp(-(x**2) / (2 * sigma**2)), -6 * sigma, 6 * sigma,
                       rel_tol=1e-12, abs_tol=1e-14)
    exact_truncated = sigma * math.sqrt(2 * math.pi) * math.erf(6.0 / math.sqrt(2.0))
    assert abs(res.value - exact_truncated) < 1e-11 * sigma
    # the 6-sigma tail itself contributes only ~2e-9 relative
    assert abs(res.value - sigma * math.sqrt(2 * math.pi)) < 1e-8 * sigma


def test_oscillatory_integrand():
    # int_0^10 e^{i 20 x} dx, forces real subdivision work
    res = integrate_1d(lambda x: np.exp(20j * x), 0.0, 10.0, rel_tol=1e-10, abs_tol=1e-13)
    expected = (np.exp(200j) - 1.0) / 20j
    assert abs(res.value - expected) < 1e-9
    assert res.subdivisions > 1


def test_linearity():
    f = lambda x: np.exp(-(x**2))
    g = lambda x: np.cos(3 * x) + 0j
    a, b = 2.0 + 1j, -0.5
    s = {"rel_tol": 1e-11, "abs_tol": 1e-14}
    lhs = integrate_1d(lambda x: a * f(x) + b * g(x), -3, 3, **s).value
    rhs = a * integrate_1d(f, -3, 3, **s).value + b * integrate_1d(g, -3, 3, **s).value
    assert abs(lhs - rhs) < 1e-10


def test_refinement_monotonicity():
    f = lambda x: np.exp(1j * 15 * x) * np.exp(-0.1 * x**2)
    errs = []
    for rel in (1e-4, 5e-5, 2.5e-5, 1.25e-5, 1e-8):
        res = integrate_1d(f, -5, 5, rel_tol=rel, abs_tol=1e-16)
        errs.append(res.error)
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_deterministic():
    f = lambda x: np.exp(1j * 7 * x) / (1 + x**2)
    r1 = integrate_1d(f, -4, 4)
    r2 = integrate_1d(f, -4, 4)
    assert r1.value == r2.value
    assert r1.error == r2.error


def test_subdivision_cap_raises_with_best_estimate():
    f = lambda x: np.exp(1j * 500 * x)
    with pytest.raises(AccuracyError) as exc:
        integrate_1d(f, 0, 50, rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=4)
    assert exc.value.best is not None
    assert np.isfinite(exc.value.best.error)


def test_rejects_infinite_interval():
    with pytest.raises(ValueError):
        integrate_1d(lambda x: np.exp(-x**2), 0.0, math.inf)


def test_rejects_nonfinite_integrand():
    with pytest.raises(ValueError):
        integrate_1d(lambda x: np.full_like(x, np.nan), -1.0, 1.0)


def test_settings_validation():
    f = lambda x: np.exp(1j * x)
    with pytest.raises(ValueError):
        integrate_1d(f, 0.0, 1.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        integrate_1d(f, 0.0, 1.0, abs_tol=-1e-12)
    with pytest.raises(ValueError):
        integrate_1d(f, 0.0, 1.0, max_subdivisions=0)
    with pytest.raises(ValueError):
        QuadratureSettings(gl_order=1)
    assert {fld.name for fld in dataclasses.fields(QuadratureSettings)} == {"gl_order"}


@pytest.mark.parametrize("order", [96.0, 96.5, True, np.float64(96.0), "96", None],
                         ids=["float", "fraction", "bool", "numpy-float", "str", "none"])
def test_settings_reject_an_order_that_is_not_an_integer(order):
    # refused at construction, not by a TypeError inside the spectral tables
    with pytest.raises(ValueError, match="gl_order must be an integer >= 2"):
        QuadratureSettings(gl_order=order)


def test_settings_take_a_numpy_integer_as_an_int():
    # the order reaches the JSON record of the rule that ran
    settings = QuadratureSettings(gl_order=np.int64(48))
    assert type(settings.gl_order) is int and settings == QuadratureSettings(gl_order=48)
    curve = hom.dip_curve(units.default_config(), "general", settings=settings)
    assert json.loads(json.dumps(curve.quadrature))["nu_order"] == 96


def test_search_start_past_the_cap_raises_before_any_rule():
    # a start order past the cap raises before the rule runs: no lower order stands
    # for it (for nu, the axis is wider than the largest rule's alias-free period)
    orders = []

    def rule(n):
        orders.append(n)
        return (lambda points: np.zeros((points.size, 2))), 2, 1.0, {}
    with pytest.raises(quadrature.AccuracyError,
                       match="toy rule: start order 192 is past the largest, 100$"):
        quadrature._searched(np.linspace(-1.0, 1.0, 5), 192, 100, rule, "toy rule")
    assert orders == []


def test_search_evaluates_each_order_once_on_every_point():
    # the estimate fails at 12 and 24 only at a point that is neither an end nor the
    # middle: each tried order's sums run once, on the whole array
    calls = []

    def rule(n):
        def sums(points):
            calls.append((n, points.size))
            values = np.zeros((points.size, 2))
            values[1, 1] = float(n < 48)
            return values
        return sums, 2, 1.0, {"order": n}
    values, record, _ = quadrature._searched(np.linspace(-1.0, 1.0, 5), 12, 100, rule, "toy rule")
    assert calls == [(12, 5), (24, 5), (48, 5)]
    assert record["order"] == 48 and record["error_estimate"] == 0.0 and values.size == 5


@pytest.mark.parametrize("nan_at", [slice(None), 1], ids=["everywhere", "off-probe"])
def test_search_fails_on_a_nan_estimate(nan_at):
    # NaN sums fail at every order, also where only one point, neither an end nor the
    # middle, is NaN
    orders = []

    def rule(n):
        orders.append(n)

        def sums(points):
            values = np.zeros((points.size, 2))
            if points.size == 5:
                values[nan_at] = np.nan
            return values
        return sums, 2, 1.0, {}
    with pytest.raises(quadrature.AccuracyError,
                       match="toy rule: error estimate nan .*; no order up to 100 passes"):
        quadrature._searched(np.linspace(-1.0, 1.0, 5), 12, 100, rule, "toy rule")
    assert orders == [12, 24, 48, 96]


def test_blocked_stacks_row_blocks_in_order(monkeypatch):
    # 16 elements per block at 3 per point is 5 points, so 12 points make three blocks,
    # the last one short; a point whose temporaries exceed a block runs alone
    monkeypatch.setattr(quadrature, "_CHUNK_ELEMENTS", 16)
    blocks = []

    def kernel(points):
        blocks.append(points.tolist())
        return np.stack([points, -points], axis=1)
    points = np.arange(12.0)
    values = quadrature._blocked(kernel, points, 3)
    assert blocks == [[0.0, 1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0, 9.0], [10.0, 11.0]]
    assert np.array_equal(values, np.stack([points, -points], axis=1))
    blocks.clear()
    assert quadrature._blocked(kernel, points[:3], 17).shape == (3, 2)
    assert blocks == [[0.0], [1.0], [2.0]]


def test_blocked_on_zero_points_gives_the_kernels_empty_result():
    sizes = []

    def kernel(points):
        sizes.append(points.size)
        return np.zeros((points.size, 3), dtype=complex)
    values = quadrature._blocked(kernel, np.empty(0), 7)
    assert sizes == [0] and values.shape == (0, 3) and values.dtype == complex


def test_search_returns_its_blocked_sums(monkeypatch):
    # the returned sums run through _blocked like the search's own evaluation
    monkeypatch.setattr(quadrature, "_CHUNK_ELEMENTS", 8)
    sizes = []

    def rule(n):
        def sums(points):
            sizes.append(points.size)
            return np.zeros((points.size, 2))
        return sums, 4, 1.0, {}
    _, _, sums = quadrature._searched(np.arange(5.0), 12, 100, rule, "toy rule")
    assert sums(np.arange(3.0)).shape == (3, 2) and sizes == [2, 2, 1, 2, 1]


@pytest.mark.parametrize("cycles", [256.5, math.inf, math.nan])
def test_start_past_the_gauss_legendre_cap_raises(cycles):
    # 4 nodes per cycle past _MAX_GL_ORDER, or a cycle count that is not finite
    with pytest.raises(quadrature.AccuracyError, match="toy rule: .* cycles over the fiber"):
        jsa._nodes_per_cycle(cycles, "toy rule")
    assert jsa._nodes_per_cycle(256.0, "toy rule") == quadrature._MAX_GL_ORDER


@pytest.mark.parametrize("cycles, start", [
    (0.5, 8), (0.51, 16), (1.0, 16), (2.0, 16), (2.5, 24), (8.0, 64), (8.01, 36)])
def test_start_doubles_from_half_a_cycle_to_eight(cycles, start):
    # 4 per cycle (at least 8) failed first in most sweep searches from 0.5 to 8 cycles
    assert jsa._nodes_per_cycle(cycles, "toy rule") == start


@pytest.mark.parametrize("length_m, cycles, z_order, lag_order", [
    (2000.0, 0.98, 16, 16), (6000.0, 2.93, 32, 24), (12000.0, 5.86, 56, 48)])
def test_z_and_lag_searches_settle_on_their_start(monkeypatch, length_m, cycles, z_order,
                                                  lag_order):
    # near 1, 3 and 6 cycles of G's phase: the z rule of H (jsa_grid, general) and the lag
    # rule each try one order, the one their search settled on from 4 per cycle
    cfg = units.build_config(**{**units.REFERENCE_PARAMS, "length_m": length_m})
    assert jsa._g_cycles(cfg) == pytest.approx(cycles, abs=0.01)
    tried, searched = [], quadrature._searched

    def spy(points, n, cap, rule, label):
        out = searched(points, n, cap, rule, label)
        tried.append((label, n, out[1].get("z_order", out[1].get("lag_orders", [None])[0])))
        return out
    for module in (jsa, hom):
        monkeypatch.setattr(module, "_searched", spy)
    hom._spectral_tables.cache_clear()
    hom._lag_tables.cache_clear()
    records = [jsa.jsa_grid(cfg, 65).quadrature, hom.dip_curve(cfg, "general").quadrature,
               hom.dip_curve(cfg, "gaussian").quadrature]
    assert [r["z_order"] for r in records[:2]] == [z_order, z_order]
    assert records[2]["lag_orders"] == [lag_order, 3 * lag_order // 4]
    rules = [(n, settled) for label, n, settled in tried if label != "general engine"]
    assert len(rules) == 3 and all(n == settled for n, settled in rules)


def test_z_rule_past_its_cap_raises():
    # +-1,000 sigma_0 puts H's phase past 1,024 nodes at 4 per cycle: the jsa grid
    # raises rather than return an unresolved H
    with pytest.raises(quadrature.AccuracyError, match="z rule of H: .* cycles over the fiber"):
        jsa.jsa_grid(units.default_config(), 5, span=1000.0)


@pytest.mark.parametrize("run", [lambda cfg: hom.dip_curve(cfg, "general"),
                                 lambda cfg: jsa.jsa_grid(cfg, 5)], ids=["general", "jsa_grid"])
def test_too_many_phase_cycles_raise_in_the_z_rule(run):
    # 100 W over 20 km: the SPM phase alone turns about 1,150 cycles
    cfg = units.build_config(**{**units.REFERENCE_PARAMS, "length_m": 20000.0,
                                "peak_power_W": 100.0})
    with pytest.raises(quadrature.AccuracyError, match="z rule of H: .* cycles over the fiber"):
        run(cfg)


def test_brentq_matches_scipy_on_general_dip():
    # the minimum is the root of the fit model's slope, the half level's crossings
    # the roots of the engine rule's fine column
    optimize = pytest.importorskip("scipy.optimize")
    cfg = units.default_config()
    curve = hom.dip_curve(cfg, "general")
    d, r = curve.delays_ps, curve.rates
    model, _, _ = fitdata._model(cfg, "general", 15.0)
    imin = int(np.argmin(r))
    roots = [(lambda x: float(fitdata._slope(*fitdata._piece(model, x))),
              d[imin - 1], d[imin + 1])]
    half = 0.5 * (1.0 + r[imin])
    flips = np.nonzero(np.diff(np.sign(r - half)))[0]
    assert flips.size == 2
    roots += [(lambda x: float(curve.rule(np.array([x]))[0, 0]) - half, d[i], d[i + 1])
              for i in flips]
    for f, a, b in roots:
        assert abs(_brentq(f, a, b) - optimize.brentq(f, a, b)) <= 2e-12
        assert _brentq(f, a, b, xtol=1e-15) == optimize.brentq(f, a, b, xtol=1e-15)


@pytest.mark.parametrize("scale", [1e-100, 1e-120, 1e-150, 1e-200, 1e-300])
def test_brentq_matches_scipy_on_tiny_values(scale):
    # from 1e-120 down, the inverse-quadratic denominator underflows to 0: scipy's C
    # step is then infinite and it bisects
    optimize = pytest.importorskip("scipy.optimize")

    def f(x):
        return scale * (x + 0.03 + 5 * x**3)
    assert _brentq(f, -0.1, 0.1) == optimize.brentq(f, -0.1, 0.1)


def test_brentq_rejects_unbracketed_and_nan():
    assert _brentq(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(math.sqrt(2.0), abs=2e-12)
    assert _brentq(lambda x: x, 0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        _brentq(lambda x: float("nan"), 0.0, 1.0)
