import csv
import math

import numpy as np
import pytest

from homsim import hom, jsa, quadrature, units
from homsim.quadrature import QuadratureSettings
from homsim.units import FilterSpec
from oracles import delta_k, jsa_grid_values, phi_closed, phi_oracle, q_oracle


@pytest.fixture(scope="module")
def cfg():
    return units.default_config()


@pytest.fixture(scope="module")
def cfg_no_dispersion():
    return units.build_config(
        length_m=300.0, beta2_ps2_per_km=0.0, gamma_per_W_m=0.0,
        lambda_p1_nm=1555.92, lambda_p2_nm=1545.95,
        pump_fwhm_nm=0.8, peak_power_W=0.36,
    )


class TestDeltaK:
    def test_zero_on_phase_matched_point(self, cfg):
        # nu_p = Delta/2, nu_s = nu_i = 0: every bracket term vanishes
        assert delta_k(cfg.Delta_rad_per_ps / 2, 0.0, 0.0, cfg) == 0.0

    def test_signal_idler_exchange_symmetry(self, cfg):
        rng = np.random.default_rng(7)
        for _ in range(20):
            nu_p, ns, ni = rng.uniform(-1, 1, 3)
            assert delta_k(nu_p, ns, ni, cfg) == pytest.approx(
                delta_k(nu_p, ni, ns, cfg), rel=1e-14)

    def test_central_value(self, cfg):
        # nu_p = nu_s = nu_i = 0 leaves beta2 Delta^2 / 4
        expected = cfg.fiber.beta2_ps2_per_m * cfg.Delta_rad_per_ps**2 / 4.0
        assert delta_k(0.0, 0.0, 0.0, cfg) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(-1.770e-3, abs=5e-6)


class TestPhiClosed:
    def test_z_zero_reduces_to_pump_gaussian(self, cfg):
        for s in (0.0, 0.3, -0.7):
            sp = cfg.sigma_p_rad_per_ps
            expected = math.sqrt(math.pi) * sp * math.exp(-(2 * s) ** 2 / (4 * sp**2))
            got = phi_closed(s, s, 0.0, cfg)
            assert got == pytest.approx(expected, rel=1e-14)
            assert abs(got.imag) == 0.0

    def test_exchange_symmetry(self, cfg):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ns, ni = rng.uniform(-1, 1, 2)
            z = rng.uniform(-300.0, 0.0)
            assert phi_closed(ns, ni, z, cfg) == phi_closed(ni, ns, z, cfg)

    def test_matches_oracle_at_reference_point(self, cfg):
        a = phi_closed(0.2, -0.1, -150.0, cfg)
        b = phi_oracle(0.2, -0.1, -150.0, cfg)
        assert abs(a - b) <= 1e-8 * abs(a)

    def test_modulus_independent_of_gamma(self):
        # gamma enters only the z-integrand phase, never Phi itself
        base = dict(length_m=300.0, beta2_ps2_per_km=-0.116,
                    lambda_p1_nm=1555.92, lambda_p2_nm=1545.95,
                    pump_fwhm_nm=0.8, peak_power_W=0.36)
        c1 = units.build_config(gamma_per_W_m=0.0, **base)
        c2 = units.build_config(gamma_per_W_m=5e-3, **base)
        for (ns, ni, z) in [(0.1, 0.2, -50.0), (-0.4, 0.3, -250.0)]:
            assert phi_closed(ns, ni, z, c1) == phi_closed(ns, ni, z, c2)

    def test_branch_guard_triggers_on_unphysical_input(self, cfg):
        with pytest.raises(FloatingPointError):
            phi_closed(0.0, 0.0, -1e8, cfg)


class TestGFunction:
    @pytest.mark.parametrize("beta2,pump", [(1.0, 1.6), (-1.0, 1.6), (-0.116, 0.4)])
    def test_matches_phi_closed_over_guarded_range(self, beta2, pump):
        # G(z) = Phi(0, 0, z) e^{-2i gamma Pp z} / (sqrt(pi) sigma_p) wherever the
        # arctan guard |beta2 z sigma_p^2| <= 1 lets both be evaluated
        cfg = units.build_config(**{**units.REFERENCE_PARAMS, "beta2_ps2_per_km": beta2,
                                    "pump_fwhm_nm": pump})
        z_max = 1.0 / (abs(cfg.fiber.beta2_ps2_per_m) * cfg.sigma_p_rad_per_ps**2)
        z = np.linspace(-z_max, z_max, 2001)
        spm = 2.0 * cfg.fiber.gamma_per_W_m * cfg.pumps.peak_power_W
        ref = (phi_closed(0.0, 0.0, z, cfg) * np.exp(-1j * spm * z)
               / (math.sqrt(math.pi) * cfg.sigma_p_rad_per_ps))
        assert np.max(np.abs(jsa._g_function(z, cfg) - ref) / np.abs(ref)) <= 1e-12
        with pytest.raises(FloatingPointError):
            jsa._g_function(1.01 * z, cfg)


class TestPhiOracle:
    def test_lattice_agreement(self, cfg):
        # 5 x 5 x 5 lattice over +-3 sigma detunings and the fiber length
        sp = cfg.sigma_p_rad_per_ps
        nus = np.linspace(-3 * sp, 3 * sp, 5)
        zs = np.linspace(-cfg.fiber.length_m, 0.0, 5)
        for ns in nus:
            for ni in nus:
                for z in zs:
                    a = phi_closed(ns, ni, z, cfg)
                    b = phi_oracle(ns, ni, z, cfg)
                    assert abs(a - b) <= 1e-7 * abs(a)

    def test_z_zero_zero_detuning(self, cfg):
        got = phi_oracle(0.0, 0.0, 0.0, cfg)
        assert got == pytest.approx(math.sqrt(math.pi) * cfg.sigma_p_rad_per_ps, rel=1e-10)


class TestQAmplitude:
    def test_dispersionless_closed_form(self, cfg_no_dispersion):
        # with beta2 = gamma = 0 the z integrand is constant
        c = cfg_no_dispersion
        sp = c.sigma_p_rad_per_ps
        for (ns, ni) in [(0.0, 0.0), (0.2, -0.1)]:
            expected = c.fiber.length_m * math.sqrt(math.pi) * sp \
                * math.exp(-((ns + ni) ** 2) / (4 * sp**2))
            assert jsa.q_amplitude(ns, ni, c) == pytest.approx(expected, rel=1e-10)

    def test_exchange_symmetry_random_points(self, cfg):
        rng = np.random.default_rng(23)
        for _ in range(20):
            ns, ni = rng.uniform(-1.0, 1.0, 2)
            a = jsa.q_amplitude(ns, ni, cfg)
            b = jsa.q_amplitude(ni, ns, cfg)
            assert abs(a - b) <= 1e-12 * abs(a)

    def test_dephasing_reduces_modulus(self, cfg, cfg_no_dispersion):
        bound = abs(jsa.q_amplitude(0.0, 0.0, cfg_no_dispersion))
        assert abs(jsa.q_amplitude(0.0, 0.0, cfg)) < bound

    def test_vectorized_matches_adaptive(self, cfg):
        ns = np.array([0.0, 0.2, -0.5])
        ni = np.array([0.1, -0.3, 0.4])
        vec = jsa.q_amplitude(ns, ni, cfg)
        for k in range(3):
            scalar = q_oracle(float(ns[k]), float(ni[k]), cfg)
            assert abs(vec[k] - scalar) <= 1e-9 * abs(scalar)

    def test_no_points_give_an_empty_array(self, cfg):
        q = jsa.q_amplitude([], [], cfg)
        assert isinstance(q, np.ndarray) and q.shape == (0,) and q.dtype == complex

    @pytest.mark.parametrize("beta2", [-0.5, -0.7, -1.0])
    def test_long_fiber_corner_matches_adaptive(self, beta2):
        # G's phase turns 29 to 53 cycles over 20 km with a 0.4 nm pump
        c = units.build_config(**{**units.REFERENCE_PARAMS, "length_m": 20000.0,
                                  "beta2_ps2_per_km": beta2, "pump_fwhm_nm": 0.4})
        ns = np.array([0.0, 0.2, -0.5, 0.3])
        ni = np.array([0.1, -0.3, 0.4, 0.3])
        vec = jsa.q_amplitude(ns, ni, c)
        for k in range(ns.size):
            scalar = q_oracle(float(ns[k]), float(ni[k]), c)
            assert abs(vec[k] - scalar) <= 1e-10 * abs(scalar)


class TestGrid:
    def test_transpose_symmetry_and_normalization(self, cfg):
        grid = jsa.jsa_grid(cfg, n_points=33, span=3.0)
        assert np.max(np.abs(grid.values)) == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(grid.values, grid.values.T, rtol=1e-12, atol=1e-12)

    def test_peak_on_energy_conservation_ridge(self, cfg):
        grid = jsa.jsa_grid(cfg, n_points=33, span=3.0)
        i, j = np.unravel_index(np.argmax(grid.abs2), grid.abs2.shape)
        # brute-force argmax lands on the nu_s + nu_i = 0 ridge where the
        # pump envelope peaks (the grid is symmetric, so i + j = n - 1)
        assert i + j == 32
        ridge = np.diag(np.fliplr(grid.abs2))
        off_ridge = grid.abs2[16, :].copy()
        off_ridge[16] = 0.0
        assert ridge.max() > off_ridge.max()

    def test_rejects_tiny_grid(self, cfg):
        with pytest.raises(ValueError):
            jsa.jsa_grid(cfg, n_points=1)

    @pytest.mark.parametrize("n_points", [2.5, 3.0, np.float64(65.0), True, "65", None],
                             ids=["fraction", "float", "numpy-float", "bool", "str", "none"])
    def test_rejects_a_count_that_is_not_an_integer_before_any_work(self, cfg, monkeypatch,
                                                                     n_points):
        # refused at the boundary, not by numpy's TypeError in np.linspace (floats) or as
        # a grid of 1 (True)
        monkeypatch.setattr(jsa, "_h_values", lambda w, cfg: pytest.fail("H evaluated"))
        with pytest.raises(ValueError, match="n_points must be an integer >= 2"):
            jsa.jsa_grid(cfg, n_points=n_points)

    def test_takes_a_numpy_integer_count(self, cfg):
        grid, again = jsa.jsa_grid(cfg, n_points=np.int64(9)), jsa.jsa_grid(cfg, n_points=9)
        assert np.array_equal(grid.values, again.values) and grid.values.shape == (9, 9)

    @pytest.mark.parametrize("span", [math.inf, 0.0, -1.0, math.nan, 1e200])
    def test_rejects_bad_span_before_any_work(self, cfg, monkeypatch, span):
        monkeypatch.setattr(jsa, "_h_values", lambda w, cfg: pytest.fail("H evaluated"))
        with pytest.raises(ValueError, match="span"):
            jsa.jsa_grid(cfg, n_points=5, span=span)

    def test_csv_round_trip(self, cfg, tmp_path):
        grid = jsa.jsa_grid(cfg, n_points=9, span=2.0)
        path = tmp_path / "grid.csv"
        jsa.write_grid_csv(grid, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "nu_s,nu_i,re_q,im_q,abs2_q"
        assert len(lines) == 1 + 9 * 9
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == grid.nu_s_axis[0]
        assert first[2] == grid.values[0, 0].real

    def test_axis_validation(self):
        # a non-uniform axis, and an infinite step, which np.allclose took as uniform
        for axis in (np.array([0.0, 1.0, 1.5]), np.array([-np.inf, 0.0, np.inf])):
            with pytest.raises(ValueError, match="uniform"):
                jsa.AmplitudeGrid(
                    nu_s_axis=axis,
                    nu_i_axis=np.array([0.0, 1.0, 2.0]),
                    values=np.zeros((3, 3), dtype=complex),
                )


def _sweep_configs(count: int, seed: int = 35) -> list:
    """Configs drawn over the parameter sweep's domain: fiber 10 m to 20 km, |beta2| 0.01 to
    1 ps^2/km of either sign, pump and filter FWHM 0.4 to 1.6 nm, inside the arctan branch."""
    rng, out = np.random.default_rng(seed), []
    while len(out) < count:
        c = units.build_config(
            length_m=10.0 ** rng.uniform(1.0, math.log10(2.0e4)),
            beta2_ps2_per_km=float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(-2.0, 0.0),
            gamma_per_W_m=1.8e-3, lambda_p1_nm=1555.92, lambda_p2_nm=1545.95,
            pump_fwhm_nm=rng.uniform(0.4, 1.6), peak_power_W=0.36,
            filter_fwhm_nm=rng.uniform(0.4, 1.6))
        if abs(c.fiber.beta2_ps2_per_m) * c.fiber.length_m * c.sigma_p_rad_per_ps**2 < 1.0:
            out.append(c)
    return out


class TestFactoredGrid:
    """jsa_grid builds Q from a Hankel view of the pump at 2 n - 1 sums and a Toeplitz
    view of H, scaled by an O(n) peak; the n^2 construction is its oracle."""

    @pytest.mark.parametrize("n_points", [2, 3, 65, 129, 257])
    def test_matches_the_n2_construction(self, n_points):
        for c in [units.default_config()] + _sweep_configs(30):
            q = jsa.jsa_grid(c, n_points).values
            assert np.max(np.abs(q - jsa_grid_values(c, n_points))) <= 2e-15
            assert np.array_equal(q, q.T)
            assert abs(np.max(np.abs(q)) - 1.0) <= 1e-14

    def test_z_rule_of_h_built_once_per_order(self, monkeypatch):
        # jsa_grid, a general curve whose nu search doubles, and a mismatched-filter curve
        # on one config share H's z rule: G reads no filter, so each order is built once.
        # A quartic filter under a broad pump fails the nu search's start at 96 on +-16 ps
        c = units.build_config(**{**units.REFERENCE_PARAMS, "length_m": 6000.0, "pump_fwhm_nm": 1.5,
                                  "filter_shape": "supergaussian4"})
        built, g_function = [], jsa._g_function
        monkeypatch.setattr(jsa, "_g_function", lambda z, cfg: built.append(z.size)
                            or g_function(z, cfg))
        jsa._z_rule.cache_clear()
        hom._spectral_tables.cache_clear()
        records = [jsa.jsa_grid(c, 129).quadrature]
        delays = np.linspace(-16.0, 16.0, 65)
        quartic = FilterSpec(shape=units.FilterShape.SUPERGAUSSIAN4)
        for engine, kw in (("general", {}), ("asymmetric", {
                "signal_filter": quartic, "idler_filter": FilterSpec(quartic.shape, 1.0)})):
            records.append(hom.dip_curve(c, engine, delays_ps=delays, **kw).quadrature)
        # the nu search doubled past its start, table after table
        assert records[1]["nu_order"] > hom._nu_start(c, QuadratureSettings().gl_order, 16.0)
        assert hom._spectral_tables.cache_info().misses >= 3
        # one build per order n, of n + 3 n / 4 nodes, and every settled order among them
        assert built and len(built) == len(set(built))
        assert {r["z_order"] * 7 // 4 for r in records} <= set(built)
        assert jsa._z_rule.cache_info().hits >= 2


def _per_row_csv(path, header, rows):
    """The reference bytes: csv.writer rows of per-value f"{x:.17g}" strings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{x:.17g}" for x in row])


def _grid_rows(grid):
    return ((ns, ni, q.real, q.imag, abs(q) ** 2)
            for ns, row in zip(grid.nu_s_axis, grid.values)
            for ni, q in zip(grid.nu_i_axis, row))


class TestCsvWriter:
    """Formatting each distinct bit pattern of a column once, and writing in row
    blocks, leaves the bytes of the per-row reference."""

    def _assert_table(self, tmp_path, columns):
        header = [f"c{k}" for k in range(len(columns))]
        jsa._write_csv(tmp_path / "t.csv", header, columns)
        _per_row_csv(tmp_path / "ref.csv", header, zip(*columns))
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_signed_zeros_stay_apart(self, tmp_path):
        # equal as values, so a value-based np.unique would print one of them twice
        column = np.array([0.0, -0.0, 0.0, 1.0, -0.0])
        assert np.unique(column).size == 2
        self._assert_table(tmp_path, [column, column[::-1].copy()])
        assert b"-0,0\r\n" in (tmp_path / "t.csv").read_bytes()

    def test_nan_and_infinite_grid_values(self, tmp_path):
        nan_bits = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64)
        negative_nan, payload_nan = nan_bits.view(np.float64)
        values = np.array([[np.nan, complex(np.inf, 1.0), complex(0.5, -np.inf)],
                           [complex(negative_nan, 0.0), complex(payload_nan, np.nan), -np.inf],
                           [complex(np.inf, np.nan), 0.25 + 0.5j, np.nan]])
        grid = jsa.AmplitudeGrid(nu_s_axis=np.arange(3.0), nu_i_axis=np.arange(3.0),
                                 values=values)
        jsa.write_grid_csv(grid, tmp_path / "grid.csv")
        _per_row_csv(tmp_path / "ref.csv", ["nu_s", "nu_i", "re_q", "im_q", "abs2_q"],
                     _grid_rows(grid))
        written = (tmp_path / "grid.csv").read_bytes()
        assert written == (tmp_path / "ref.csv").read_bytes()
        assert b"-inf" in written and b"nan" in written and b"-nan" not in written

    def test_every_value_repeats(self, tmp_path):
        self._assert_table(tmp_path, [np.full(40, 0.1), np.full(40, -3e-300), np.full(40, 7.0)])

    def test_one_row(self, tmp_path):
        self._assert_table(tmp_path, [np.array([1.0 / 3.0]), np.array([-0.0]), np.array([5e-324])])

    def test_rows_across_several_blocks(self, tmp_path, monkeypatch):
        # 16 elements per block of 5 columns is 3 rows, so 10 rows make four
        # blocks, the last one short
        monkeypatch.setattr(quadrature, "_CHUNK_ELEMENTS", 16)
        assert len(quadrature._chunks(10, 5)) == 4
        rng = np.random.default_rng(5)
        self._assert_table(tmp_path, [rng.choice([0.5, -0.0, 0.0, 2.0 / 3.0], 10)
                                      for _ in range(5)])

    def test_reference_grid_file(self, cfg, tmp_path):
        # the 257^2 grid spans three default row blocks
        grid = jsa.jsa_grid(cfg, 257)
        assert len(quadrature._chunks(grid.values.size, 5)) == 3
        jsa.write_grid_csv(grid, tmp_path / "grid.csv")
        _per_row_csv(tmp_path / "ref.csv", ["nu_s", "nu_i", "re_q", "im_q", "abs2_q"],
                     _grid_rows(grid))
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
