import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from homsim import cli
from homsim import imperfections as imp
from oracles import bessel_j1


class TestBesselJ1:
    def test_zero(self):
        assert bessel_j1(0.0) == 0.0

    def test_global_maximum(self):
        # cross-check against a high-precision series summation
        import mpmath
        x = 1.8411837813406593
        assert bessel_j1(x) == pytest.approx(float(mpmath.besselj(1, x)), abs=1e-14)
        assert bessel_j1(x) == pytest.approx(0.5819, abs=1e-4)

    def test_first_zero(self):
        assert abs(bessel_j1(imp.J1_FIRST_ZERO)) < 1e-12
        # root bracketing: sign change around the zero
        assert bessel_j1(3.8) * bessel_j1(3.9) < 0

    def test_against_series_oracle_dense(self):
        import mpmath
        mpmath.mp.dps = 40
        for x in np.linspace(-20, 20, 161):
            exact = float(mpmath.besselj(1, mpmath.mpf(float(x))))
            assert abs(bessel_j1(float(x)) - exact) < 1e-12
        # J1 and the Airy amplitude 2 J1(x)/x on a ten times denser grid and
        # down to |x| = 1e-9, where the quotient 2 J1(x)/x would lose digits
        for x in [*np.linspace(-20, 20, 1601), 1e-9, 1e-6, -1e-6, 1e-3]:
            exact = mpmath.besselj(1, mpmath.mpf(float(x)))
            assert abs(bessel_j1(float(x)) - float(exact)) < 1e-14
            amp = float(2 * exact / x) if x else 1.0
            assert abs(imp._airy_amplitude(float(x)) - amp) < 1e-14
        for x in (1e3, -1e4, 1e5, 1e6):
            assert abs(bessel_j1(x) - float(mpmath.besselj(1, x))) < 1e-13

    def test_odd_function(self):
        for x in (0.3, 2.7, 11.4, 1e3, 1e6):
            assert bessel_j1(-x) == -bessel_j1(x)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            bessel_j1(float("nan"))

    @pytest.mark.parametrize("fn", [bessel_j1, imp._airy_amplitude])
    @pytest.mark.parametrize("x", [math.nextafter(1e6, math.inf), -1.5e6, math.inf])
    def test_rejects_beyond_node_bound(self, fn, x):
        # raised before the 32 + 2 ceil(|x|) nodes are built
        with pytest.raises(ValueError, match="at most 1e6"):
            fn(x)


class TestBeamSplitter:
    def test_balanced_gives_unity(self):
        assert imp.bs_visibility_factor(imp.BeamSplitter(0.5, 0.5)) == 1.0

    def test_measured_splitter(self):
        got = imp.bs_visibility_factor(imp.BeamSplitter(0.474, 0.526))
        assert got == pytest.approx(0.9946, abs=1e-4)

    def test_forty_sixty(self):
        got = imp.bs_visibility_factor(imp.BeamSplitter(0.4, 0.6))
        assert got == pytest.approx(2 * 0.24 / 0.52, rel=1e-12)

    def test_at_most_one_with_equality_iff_balanced(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = rng.uniform(0.01, 0.99)
            f = imp.bs_visibility_factor(imp.BeamSplitter(r, 1.0 - r))
            assert f <= 1.0
            if abs(r - 0.5) > 1e-6:
                assert f < 1.0

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            imp.BeamSplitter(0.5, 0.6)
        with pytest.raises(ValueError):
            imp.BeamSplitter(-0.1, 1.1)


class TestSpatialOverlap:
    def test_zero_angle(self):
        geom = imp.SpatialGeometry(5e-3, 1.55e-6, 0.0)
        assert imp.spatial_overlap(geom) == 1.0
        assert imp._airy_amplitude(0.0) == 1.0

    def test_first_bessel_zero_kills_overlap(self):
        # choose theta so that pi d sin(theta) / lambda hits the first J1 zero
        d, lam = 5e-3, 1.55e-6
        theta = math.asin(imp.J1_FIRST_ZERO * lam / (math.pi * d))
        assert imp.spatial_overlap(imp.SpatialGeometry(d, lam, theta)) < 1e-20

    def test_even_and_decreasing(self):
        d, lam = 5e-3, 1.55e-6
        thetas = np.linspace(1e-6, 2e-4, 40)
        vals = [imp.spatial_overlap(imp.SpatialGeometry(d, lam, t)) for t in thetas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        for t in (1e-5, 7e-5):
            assert imp.spatial_overlap(imp.SpatialGeometry(d, lam, t)) == \
                imp.spatial_overlap(imp.SpatialGeometry(d, lam, -t))

    def test_against_disk_quadrature_oracle(self):
        # brute-force evaluation of the aperture integral: the normalized
        # overlap equals |int_disk exp(i k x) dA / (pi a^2)|^2 per arm;
        # evaluate the disk integral on a fine polar grid
        d, lam, theta = 5e-3, 1.55e-6, 30e-6
        a = d / 2.0
        k = 2.0 * math.pi * math.sin(theta) / lam
        nr, nphi = 400, 400
        r = (np.arange(nr) + 0.5) * (a / nr)
        phi = (np.arange(nphi) + 0.5) * (2 * math.pi / nphi)
        R, PHI = np.meshgrid(r, phi, indexing="ij")
        dA = (a / nr) * (2 * math.pi / nphi)
        disk = np.sum(np.exp(1j * k * R * np.cos(PHI)) * R * dA)
        oracle = abs(disk / (math.pi * a**2)) ** 2
        got = imp.spatial_overlap(imp.SpatialGeometry(d, lam, theta))
        assert got == pytest.approx(oracle, rel=1e-6)


class TestAngleInversion:
    def test_round_trip_identity(self):
        d, lam = 5e-3, 1.55e-6
        for target in (0.05, 0.3, 0.7, 0.943, 0.999):
            theta = imp.solve_angle_for_overlap(target, d, lam)
            achieved = imp.spatial_overlap(imp.SpatialGeometry(d, lam, theta))
            assert abs(achieved - target) < 1e-10

    def test_high_target_small_angle(self):
        d, lam = 5e-3, 1.55e-6
        t1 = imp.solve_angle_for_overlap(0.999, d, lam)
        t2 = imp.solve_angle_for_overlap(0.9999, d, lam)
        assert 0 < t2 < t1

    def test_reference_inversion(self):
        # the computed angle for a 0.943 overlap with d = 5 mm, 1.55 um;
        # reported value, not forced to any external figure
        theta = imp.solve_angle_for_overlap(0.943, 5e-3, 1.55e-6)
        assert theta == pytest.approx(47.69e-6, abs=0.05e-6)

    def test_tiny_target_gives_first_zero_angle(self):
        # 1e-30 is solved to within rounding of the zero; below ~6e-36 the sum's
        # 2.4e-18 at the zero is above sqrt(target) and the zero itself is kept
        d, lam = 5e-3, 1.55e-6
        first_zero = math.asin(imp.J1_FIRST_ZERO * lam / (math.pi * d))
        for target in (1e-30, 1e-300, 5e-324):
            theta = imp.solve_angle_for_overlap(target, d, lam)
            assert theta == pytest.approx(first_zero, rel=1e-12)

    def test_against_mpmath_root(self):
        # the depth keeps its relative accuracy as x -> 0, so the angle does too; the
        # amplitude's rounding over its slope x/4 once left 9.7e-11 at 0.999999.  The
        # worst measured over 106 targets in [0.01, 0.9999997] is 3.6e-16
        import mpmath
        mpmath.mp.dps = 40
        d, lam = 5e-3, 1.55e-6
        for target in (0.05, 0.5, 0.943, 0.9999, 0.99999, 0.999999):
            x = mpmath.findroot(lambda x: 2 * mpmath.besselj(1, x) / x - mpmath.sqrt(target),
                                (mpmath.mpf("1e-3"), imp.J1_FIRST_ZERO), solver="anderson")
            exact = float(mpmath.asin(x * lam / (mpmath.pi * d)))
            assert imp.solve_angle_for_overlap(target, d, lam) == pytest.approx(exact, rel=4e-16)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(target=st.floats(0.01, 0.99))
    @example(target=0.01)
    @example(target=0.99)
    def test_matches_scipy_brentq(self, target):
        # Brent on the same Airy sum as depth - (1 - sqrt(target)); on the amplitude
        # 2 J1(x)/x - sqrt(target), which cancels, Brent itself strays by up to 1.5e-14
        optimize = pytest.importorskip("scipy.optimize")
        d, lam = 5e-3, 1.55e-6
        level = (1.0 - target) / (1.0 + math.sqrt(target))
        x = optimize.brentq(lambda x: imp._airy_depth(x)[0] - level, 0.0, imp.J1_FIRST_ZERO,
                            xtol=1e-15)
        exact = math.asin(x * lam / (math.pi * d))
        assert imp.solve_angle_for_overlap(target, d, lam) == pytest.approx(exact, rel=1e-14)

    def test_depth_and_slope_against_mpmath(self):
        # 1 - 2 J1(x)/x and its slope 2 J2(x)/x, to 1e-15 relative down to x = 1e-6
        import mpmath
        mpmath.mp.dps = 40
        for x in (1e-6, 1e-3, 0.05, 0.7, 2.0, imp.J1_FIRST_ZERO):
            depth, slope = imp._airy_depth(x)
            xm = mpmath.mpf(x)
            assert depth == pytest.approx(float(1 - 2 * mpmath.besselj(1, xm) / xm), rel=1e-15)
            assert slope == pytest.approx(float(2 * mpmath.besselj(2, xm) / xm), rel=1e-15)

    def test_solve_record(self):
        # Newton's last step meets its stop, 1e-15 + 4 eps x; the shortcut takes none
        for target in (0.05, 0.943, 0.999999, 1e-30):
            theta, record = imp._solve_angle(target, 5e-3, 1.55e-6)
            assert 1 <= record["iterations"] <= 8
            assert abs(record["last_step"]) <= 1e-15 + 4 * np.finfo(float).eps * 3.9
            assert abs(record["depth_residual"]) <= 4e-16
        _, record = imp._solve_angle(1e-300, 5e-3, 1.55e-6)
        assert record["iterations"] == 0 and record["last_step"] is None

    def test_rejects_bad_target(self):
        for target in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                imp.solve_angle_for_overlap(target, 5e-3, 1.55e-6)


def test_visibility_budget_multiplies():
    bs = imp.BeamSplitter(0.474, 0.526)
    geom = imp.SpatialGeometry(5e-3, 1.55e-6, 30e-6)
    v = imp.visibility_budget(1.0, bs=bs, geom=geom)
    assert v == pytest.approx(imp.bs_visibility_factor(bs) * imp.spatial_overlap(geom), rel=1e-14)


@pytest.mark.parametrize("call, args", [
    (imp.solve_angle_for_overlap, (0.9, -5e-3, 1.55e-6)),
    (imp.solve_angle_for_overlap, (0.9, 5e-3, 0.0)),
    (imp.solve_angle_for_overlap, (0.9, math.nan, 1.55e-6)),
    (imp.SpatialGeometry, (math.inf, 1.55e-6, 0.0)),
    (imp.SpatialGeometry, (5e-3, math.inf, 0.0)),
    (imp.BeamSplitter, (math.nan, math.nan)),
    (imp.BeamSplitter, (math.nan, 0.5)),
    (cli.main, (["overlap", "--target", "0.9", "--d-mm", "0"],)),
    (cli.main, (["overlap", "--theta-urad", "10", "--lambda-nm", "inf"],)),
    (cli.main, (["overlap", "--target", "0.9", "--theta-urad", "10"],)),
    # x = pi d sin(theta) / lambda = 1.003e6, past the bound on the node count
    (cli.main, (["overlap", "--theta-urad", "1428700", "--d-mm", "500"],)),
], ids=["solve-negative-d", "solve-zero-lambda", "solve-nan-d", "geometry-infinite-d",
        "geometry-infinite-lambda", "splitter-nan", "splitter-nan-r", "cli-zero-d",
        "cli-infinite-lambda", "cli-target-and-angle", "cli-beyond-node-bound"])
def test_invalid_input_rejected(call, args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if call is cli.main:
        assert call(*args) == 2
    else:
        with pytest.raises(ValueError):
            call(*args)
