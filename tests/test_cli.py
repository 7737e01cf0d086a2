import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from homsim import cli, fitdata, hom, imperfections, jsa, units


def run(args):
    return cli.main(args)


@pytest.fixture()
def dip_data_file(tmp_path):
    delays = np.round(np.arange(-150, 151) * 0.1, 10)
    w = 7.2 / (2 * math.sqrt(2 * math.log(2)))
    counts = 250.0 * (1 - 0.943 * np.exp(-(delays**2) / (2 * w**2)))
    p = tmp_path / "counts.csv"
    p.write_text("delay_ps,counts\n" + "\n".join(
        f"{d},{c}" for d, c in zip(delays, counts)))
    return p


class TestJsaCommand:
    def test_writes_grid_and_manifest(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run(["jsa", "--n", "9", "--span", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "nu_s,nu_i,re_q,im_q,abs2_q"
        assert len(lines) == 1 + 9 * 9
        man = json.loads((tmp_path / "grid.manifest.json").read_text())
        assert man["tool"] == "homsim"
        assert man["command"] == "jsa"
        assert man["grid"] == {"n_points": 9, "span_sigma0": 2.0}
        # the z rule that ran and its estimate, as the library's own grid records them
        quad = man["quadrature"]
        assert quad == jsa.jsa_grid(units.default_config(), 9, 2.0).quadrature
        assert quad["z_order"] == 8 and 0.0 <= quad["z_error_estimate"] <= 1e-12
        assert man["config"]["filter_shape"] == "gaussian"

    def test_n_controls_row_count(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run(["jsa", "--n", "5", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 25

    def test_config_file_overridden_by_flag(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"pump_fwhm_nm": 0.4}))
        out = tmp_path / "g.csv"
        assert run(["jsa", "--config", str(cfgfile), "--pump-fwhm-nm", "0.8",
                    "--n", "5", "--out", str(out)]) == 0
        man = json.loads((tmp_path / "g.manifest.json").read_text())
        assert man["config"]["pump_fwhm_nm"] == 0.8

    def test_missing_config_exits_2(self, tmp_path):
        rc = run(["jsa", "--config", str(tmp_path / "nope.json"),
                  "--out", str(tmp_path / "g.csv")])
        assert rc == 2

    @pytest.mark.parametrize("doc", [{"fiber_length": 300}, {"fwhm_convention": "amplitude"}],
                             ids=["fiber_length", "fwhm_convention"])
    def test_unknown_config_field_exits_2(self, tmp_path, doc):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        assert run(["jsa", "--config", str(cfgfile),
                    "--out", str(tmp_path / "g.csv")]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("{not json")
        assert run(["jsa", "--config", str(cfgfile),
                    "--out", str(tmp_path / "g.csv")]) == 2

    @pytest.mark.parametrize("doc", ["5", "[1]"])
    def test_non_object_config_exits_2(self, tmp_path, capsys, doc):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(doc)
        assert run(["jsa", "--config", str(cfgfile),
                    "--out", str(tmp_path / "g.csv")]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("span", ["inf", "0", "-1", "nan", "1e200"])
    def test_bad_span_exits_2(self, tmp_path, capsys, span):
        # rejected before any work: an infinite span once reached the z rule
        # and warned about cos/sin before failing on the grid axes
        assert run(["jsa", f"--span={span}", "--out", str(tmp_path / "g.csv")]) == 2
        assert "--span" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()


class TestDipCommand:
    def test_default_engine_curve(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run(["dip", "--delay-min", "-15", "--delay-max", "15",
                    "--delay-step", "0.5", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "delay_ps,rate_normalized"
        assert len(lines) == 1 + 61
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["visibility"] == pytest.approx(1.0, abs=1e-3)
        assert metrics["fwhm_ps"] == pytest.approx(6.4, abs=0.3)

    def test_manifest_records_engine_and_quadrature(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run(["dip", "--engine", "gaussian", "--delay-step", "1.0",
                    "--out", str(out)]) == 0
        man = json.loads((tmp_path / "curve.manifest.json").read_text())
        assert man["engine"] == "gaussian"
        # the printed metrics, baseline included, and the derived rates beside the config
        assert man["metrics"] == json.loads(capsys.readouterr().out)
        assert man["metrics"]["baseline"] == 1.0 and man["metrics"]["center_ps"] == 0.0
        # the FWHM's error estimate, from the lag rule that ran
        assert 0.0 <= man["metrics"]["fwhm_error_ps"] <= 1e-12 * man["metrics"]["fwhm_ps"]
        # and the visibility's: the lag rule's fine and coarse rates are both exactly 0 at 0
        assert man["metrics"]["visibility_error"] == 0.0
        assert "derived" not in man["config"]
        assert man["derived"]["Omega_rad_per_ps"] == units.default_config().Omega_rad_per_ps
        assert man["supergaussian_calibration"] == "half-power-at-configured-fwhm"
        quad = man["quadrature"]
        assert quad["lag_orders"] == [8, 6] and quad["kappa"] >= 1.0
        assert 0.0 <= quad["error_estimate"] <= quad["abs_tol"] == 1e-12

    @pytest.mark.parametrize("engine,shape", [("general", "cascade"),
                                              ("supergaussian", "supergaussian4")])
    def test_manifest_records_spectral_order_and_estimate(self, tmp_path, engine, shape):
        # the orders the search settled on, not the settings' echo: both engines start
        # at gl_order 96 and pass there, the cascade on the box of its quartic stage
        out = tmp_path / "curve.csv"
        assert run(["dip", "--engine", engine, "--filter-shape", shape,
                    "--out", str(out)]) == 0
        quad = json.loads((tmp_path / "curve.manifest.json").read_text())["quadrature"]
        assert {"rel_tol", "gl_order", "trunc_sigmas"}.isdisjoint(quad)
        assert quad["nu_order"] == 96
        assert 0.0 <= quad["error_estimate"] <= quad["abs_tol"]
        # identical arms make every cross weight nonnegative: no cancellation
        assert quad["kappa"] == pytest.approx(1.0, abs=1e-12) and quad["nu_halfwidth"] > 0.0

    def test_repeat_runs_write_identical_output(self, tmp_path):
        outs = [tmp_path / "c1.csv", tmp_path / "c2.csv"]
        for out in outs:
            assert run(["dip", "--delay-min", "-8", "--delay-max", "8",
                        "--delay-step", "0.5", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert "threads" not in json.loads((tmp_path / "c2.manifest.json").read_text())

    def test_filter_mismatch_degrades_visibility(self, tmp_path, capsys):
        out = tmp_path / "mis.csv"
        assert run(["dip", "--engine", "general", "--filter-mismatch", "0.2",
                    "--delay-step", "0.5", "--out", str(out)]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["visibility"] < 0.999

    def test_mismatch_requires_compatible_engine(self, tmp_path):
        assert run(["dip", "--engine", "gaussian", "--filter-mismatch", "0.2",
                    "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("engine,shape", [("gaussian", "gaussian"),
                                              ("supergaussian", "supergaussian4")])
    @pytest.mark.parametrize("how", ["mismatch", "config"])
    def test_idler_equal_to_the_signal_is_the_default_run(self, tmp_path, capsys, engine,
                                                          shape, how):
        # a mismatch that rounds away, or a config idler equal to the signal, is matched
        flags = ["dip", "--engine", engine, "--filter-shape", shape]
        assert run([*flags, "--out", str(tmp_path / "default.csv")]) == 0
        default = capsys.readouterr().out
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"idler_filter_fwhm_nm": 0.8}))
        idler = (["--filter-mismatch", "1e-17"] if how == "mismatch"
                 else ["--config", str(cfgfile)])
        assert run([*flags, *idler, "--out", str(tmp_path / "idler.csv")]) == 0
        assert capsys.readouterr().out == default
        assert (tmp_path / "idler.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()

    def test_asymmetric_is_not_an_engine_choice(self, tmp_path):
        # the mismatched case is `--engine general --filter-mismatch`
        with pytest.raises(SystemExit) as exc:
            run(["dip", "--engine", "asymmetric", "--filter-mismatch", "0.2",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_supergaussian_engine(self, tmp_path, capsys):
        out = tmp_path / "sg.csv"
        assert run(["dip", "--engine", "supergaussian",
                    "--filter-shape", "supergaussian4",
                    "--delay-step", "0.5", "--out", str(out)]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["fwhm_ps"] == pytest.approx(8.0, abs=0.5)

    def test_engine_config_mismatch_exits_2(self, tmp_path):
        # closed Gaussian engine with a quartic filter is a config error
        rc = run(["dip", "--engine", "gaussian", "--filter-shape",
                  "supergaussian4", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_mismatch_with_config_idler_filter_exits_2(self, tmp_path):
        # the flag would otherwise replace the idler filter the config sets
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"idler_filter_fwhm_nm": 0.9}))
        assert run(["dip", "--config", str(cfgfile), "--engine", "general",
                    "--filter-mismatch", "0.2", "--out", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()

    def test_unwritable_output_exits_1(self, tmp_path):
        assert run(["dip", "--out", str(tmp_path / "missing" / "x.csv")]) == 1

    def test_scan_narrower_than_dip_exits_3(self, tmp_path, capsys):
        # the engine baseline is 1, so the half level lies beyond a +-2 ps scan
        # of the 6.25 ps dip; an edge estimate once gave a 2.66 ps FWHM here
        assert run(["dip", "--engine", "gaussian", "--delay-min", "-2", "--delay-max", "2",
                    "--out", str(tmp_path / "x.csv")]) == 3
        assert "not bracketed" in capsys.readouterr().err

    @pytest.mark.parametrize("bound,step,cause", [
        ("1e80", "1e79", "root not resolved"),  # the half-level solve halves 1e79 ps
        ("1e50", "1e49", "flat at the baseline")])  # no sample lands on 0
    def test_step_far_wider_than_the_dip_exits_3(self, tmp_path, capsys, bound, step, cause):
        assert run(["dip", "--engine", "gaussian", f"--delay-min=-{bound}", "--delay-max", bound,
                    "--delay-step", step, "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical error: delay step {float(step):g} ps is 1.6e+")
        assert "times the dip's width of about 6.25 ps" in err and cause in err
        assert err.count("\n") == 1 and list(tmp_path.iterdir()) == []

    def test_coarse_step_that_resolves_the_dip_exits_0(self, tmp_path, capsys):
        # one sample on the dip at 0: the half level is solved on the engine's rule
        assert run(["dip", "--engine", "gaussian", "--delay-min=-1e6", "--delay-max", "1e6",
                    "--delay-step", "1e5", "--out", str(tmp_path / "x.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["fwhm_ps"] == pytest.approx(6.2532, abs=1e-4)

    def test_supergaussian_engine_with_gaussian_filter_exits_2(self, tmp_path):
        # the quartic engine must not silently replace the configured filter
        rc = run(["dip", "--engine", "supergaussian", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert not (tmp_path / "x.csv").exists()

    def _bad_delay_axis(self, tmp_path, capsys, flags):
        assert run(["dip", *flags, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "--delay" in err and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_zero_delay_step_exits_2(self, tmp_path, capsys):
        self._bad_delay_axis(tmp_path, capsys, ["--delay-step", "0"])

    def test_negative_delay_step_exits_2(self, tmp_path, capsys):
        self._bad_delay_axis(tmp_path, capsys, ["--delay-step", "-0.1"])

    def test_reversed_delay_range_exits_2(self, tmp_path, capsys):
        self._bad_delay_axis(tmp_path, capsys, ["--delay-min", "5", "--delay-max", "-5"])

    @pytest.mark.parametrize("flags", [["--delay-max", "inf"], ["--delay-min=-inf"],
                                       ["--delay-step", "inf"], ["--delay-step", "nan"],
                                       ["--delay-min", "nan"],
                                       ["--delay-min=-1e308", "--delay-max", "1e308"],
                                       ["--delay-step", "1e-320"],
                                       # finite, but its rounding to 1e-12 ps overflowed
                                       ["--delay-min=-1e300", "--delay-max", "1e300",
                                        "--delay-step", "1e299"]])
    def test_nonfinite_delay_axis_exits_2(self, tmp_path, capsys, flags):
        self._bad_delay_axis(tmp_path, capsys, flags)

    def test_axis_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # 3e13 delays: the 218 TiB request passes the 128 TiB user address space, so it
        # fails at once and allocates nothing; one stderr line, no output, no manifest
        assert run(["dip", "--delay-step", "1e-12", "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


FLOAT_CONFIG_FLAGS = pytest.mark.parametrize(
    "flag", [cli._flag(k) for k in units.REFERENCE_PARAMS if k != "filter_shape"])
COMMANDS = {"dip-gaussian": ["dip", "--engine", "gaussian"],
            "dip-general": ["dip", "--engine", "general"],
            "jsa": ["jsa", "--n", "5"], "fit-model": ["fit", "--mode", "model"]}
CONFIG_COMMANDS = pytest.mark.parametrize("command", list(COMMANDS.values()), ids=list(COMMANDS))


@FLOAT_CONFIG_FLAGS
@CONFIG_COMMANDS
def test_nonfinite_config_flag_exits_2(tmp_path, capsys, dip_data_file, command, flag):
    # every float config flag is checked where the config is built, before any engine
    # runs; an exception that escapes main fails the test
    data = ["--data", str(dip_data_file)] if command[0] == "fit" else []
    for value in ("inf", "nan"):
        out = tmp_path / "x.csv"
        assert run([*command, *data, flag, value, "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


# (command, flag, value) of the extreme finite inputs that once raised out of main:
# a derived rate that overflowed or vanished, a closed-engine baseline that underflowed
# to 0, and a Brent step whose denominator underflowed
ONCE_RAISED = {
    *((c, f, "1e-300") for c in ("dip-gaussian", "dip-general", "jsa", "fit-model")
      for f in ("--lambda-p1-nm", "--lambda-p2-nm")),
    *((c, "--pump-fwhm-nm", "1e300") for c in ("dip-gaussian", "jsa", "fit-model")),
    *((c, "--filter-fwhm-nm", "1e300") for c in ("dip-gaussian", "fit-model")),
    ("jsa", "--pump-fwhm-nm", "1e-300"),
    *((c, "--length-m", "1e-300") for c in ("dip-gaussian", "fit-model")),
    ("dip-gaussian", "--filter-fwhm-nm", "1e-30"),
}


@FLOAT_CONFIG_FLAGS
@pytest.mark.parametrize("name", COMMANDS)
def test_extreme_finite_config_flag_exits_cleanly(tmp_path, capsys, dip_data_file, name, flag):
    # a finite config whose derived rates cannot be represented is rejected (exit 2) and
    # one the rules cannot resolve fails as a numerical error (exit 3), each with a
    # one-line message; an exception that escapes main fails the test
    command = COMMANDS[name]
    data = ["--data", str(dip_data_file)] if command[0] == "fit" else []
    for value in ("1e-300", "1e300", "-1e300", "1e-30", "1e30"):
        code = run([*command, *data, f"{flag}={value}", "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code in (0, 2, 3)
        assert code == 0 or len(err.splitlines()) == 1
        if (name, flag, value) in ONCE_RAISED:
            assert code in (2, 3)


class TestManifestRoundTrip:
    @pytest.mark.parametrize("options,config_flags", [
        (["dip", "--engine", "gaussian"], []),
        (["dip", "--engine", "general"], []),
        (["dip", "--engine", "general"], ["--filter-mismatch", "0.2"]),
        (["dip", "--engine", "supergaussian"], ["--filter-shape", "supergaussian4"]),
        (["jsa", "--n", "17"], []),
    ])
    def test_manifest_config_reproduces_output(self, tmp_path, options, config_flags):
        first, replay = tmp_path / "first.csv", tmp_path / "replay.csv"
        assert run(options + config_flags + ["--out", str(first)]) == 0
        config = json.loads((tmp_path / "first.manifest.json").read_text())["config"]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        assert run(options + ["--config", str(cfgfile), "--out", str(replay)]) == 0
        assert first.read_bytes() == replay.read_bytes()

    @pytest.mark.parametrize("target", ["0.943", "0.999999", "1e-300"])
    def test_overlap_manifest_reproduces_its_solve(self, tmp_path, target):
        # the recorded target, d and lambda replay the solve from scratch: the same bytes
        # and the same manifest, its solver record included
        first, replay = tmp_path / "first.json", tmp_path / "replay.json"
        assert run(["overlap", "--target", target, "--d-mm", "4", "--out", str(first)]) == 0
        man = json.loads((tmp_path / "first.manifest.json").read_text())
        imperfections._solve_angle.cache_clear()
        assert run(["overlap", "--target", repr(man["result"]["target"]), "--d-mm",
                    repr(man["d_mm"]), "--lambda-nm", repr(man["lambda_nm"]),
                    "--out", str(replay)]) == 0
        again = json.loads((tmp_path / "replay.manifest.json").read_text())
        assert first.read_bytes() == replay.read_bytes()
        for record in (man, again):
            del record["wall_clock_s"], record["outputs"]
        assert again == man and "solver" in man


class TestFitCommand:
    def test_gaussian_dip_fit(self, tmp_path, dip_data_file, capsys):
        out = tmp_path / "fit.json"
        assert run(["fit", "--data", str(dip_data_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["converged"]
        assert doc["params"]["visibility"] == pytest.approx(0.943, abs=1e-6)
        assert doc["params"]["fwhm_ps"] == pytest.approx(7.2, abs=1e-6)
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged"] is True
        assert (tmp_path / "fit.manifest.json").exists()

    def test_missing_data_exits_1(self, tmp_path):
        assert run(["fit", "--data", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "f.json")]) == 1

    def test_corrupt_data_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(["0,1"] * 6 + ["6,oops"] + ["7,1", "8,1"]))
        assert run(["fit", "--data", str(bad),
                    "--out", str(tmp_path / "f.json")]) == 2

    def test_too_few_points_exits_2(self, tmp_path):
        small = tmp_path / "small.csv"
        small.write_text("\n".join(f"{i},1" for i in range(4)))
        assert run(["fit", "--data", str(small),
                    "--out", str(tmp_path / "f.json")]) == 2

    @pytest.mark.parametrize("row", ["0.05,nan,1", "0.05,inf,1", "0.05,200,0",
                                     "0.05,200,-1", "0.05,200,nan", "nan,200,1"])
    def test_nonfinite_or_nonpositive_data_exits_2(self, tmp_path, capsys, row):
        data = tmp_path / "counts.csv"
        data.write_text("\n".join([f"{k * 0.5 - 5.0},200,1" for k in range(20)] + [row]))
        out = tmp_path / "f.json"
        assert run(["fit", "--data", str(data), "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["gaussian-dip", "model"])
    @pytest.mark.parametrize("rows,message", [
        ([f"{k - 20},0" for k in range(41)], "need at least one positive count"),
        ([f"{k - 20},{0 if k == 20 else 1e160}" for k in range(41)],
         "the largest count must lie within [1e-100, 1e100]"),
        ([f"0.5,{10 + k}" for k in range(10)], "need at least 8 points, got 1"),
    ], ids=["all-zero", "overflowing", "one-distinct-delay"])
    def test_rejected_data_writes_one_stderr_line(self, tmp_path, capsys, mode, rows, message):
        # no fit runs: all-zero counts once "converged", counts of 1e160 printed five
        # overflow warnings before failing, and ten rows at one delay printed the
        # two-line duplicate-delay warning before the too-few-points error
        data = tmp_path / "counts.csv"
        data.write_text("\n".join(rows))
        out = tmp_path / "f.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["fit", "--data", str(data), "--mode", mode, "--out", str(out)]) == 2
        assert caught == []
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_output_not_opened_before_serialization(self, tmp_path, dip_data_file,
                                                     monkeypatch):
        def unserializable(*args, **kwargs):
            raise ValueError("not serializable")

        monkeypatch.setattr(cli, "fit_result_to_json", unserializable)
        out = tmp_path / "f.json"
        assert run(["fit", "--data", str(dip_data_file), "--out", str(out)]) == 2
        assert not out.exists()

    def test_model_mode(self, tmp_path, dip_data_file):
        out = tmp_path / "fit.json"
        assert run(["fit", "--data", str(dip_data_file), "--mode", "model",
                    "--engine", "gaussian", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["converged"]
        assert 0.9 < doc["params"]["scale"] < 1.0

    def test_model_mode_with_an_idler_equal_to_the_signal(self, tmp_path, dip_data_file, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"idler_filter_fwhm_nm": 0.8}))
        results = []
        for name, extra in (("default", []), ("idler", ["--config", str(cfgfile)])):
            out = tmp_path / f"{name}.json"
            assert run(["fit", "--data", str(dip_data_file), "--mode", "model", "--engine",
                        "gaussian", *extra, "--out", str(out)]) == 0
            results.append((out.read_bytes(), capsys.readouterr().out))
        assert results[0] == results[1]

    def test_fit_with_no_reducing_step_says_so(self, tmp_path, dip_data_file):
        # at a 1e-30 nm filter the engine model is ~1e-122 dt^2 over the grid: no trial of
        # the first iteration lowers the residual, so the fit stops there, not at max_iter
        out = tmp_path / "fit.json"
        assert run(["fit", "--data", str(dip_data_file), "--mode", "model",
                    "--filter-fwhm-nm=1e-30", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["iterations"] == 1 and not doc["converged"]
        assert doc["message"].startswith("no step reduced the residual;")
        assert "max iterations" not in doc["message"]
        assert doc["suspicious"] and doc["message"].endswith("; " + fitdata._BASELINE_NOTE)

    @pytest.mark.parametrize("mode,engine", [("model", "gaussian"), ("model", "general"),
                                             ("model", None), ("gaussian-dip", None)])
    def test_fit_records_errors_and_model(self, tmp_path, dip_data_file, mode, engine):
        out = tmp_path / "fit.json"
        assert run(["fit", "--data", str(dip_data_file), "--mode", mode, "--out", str(out)]
                   + (["--engine", engine] if engine else [])) == 0
        doc = json.loads(out.read_text())
        man = json.loads((tmp_path / "fit.manifest.json").read_text())
        assert set(doc["std_errors"]) == set(doc["params"])
        assert doc["dof"] == 301 - (3 if mode == "model" else 4)
        assert doc["reduced_chi2"] == doc["residual_norm"] / doc["dof"]
        # the DipMetrics record the dip command prints; a fit counts no crossings and
        # estimates no FWHM or visibility error
        assert list(doc["derived_metrics"]) == ["visibility", "fwhm_ps", "center_ps",
                                                "baseline", "engine", "half_level_crossings",
                                                "fwhm_error_ps", "visibility_error"]
        assert doc["derived_metrics"]["half_level_crossings"] is None
        assert doc["derived_metrics"]["fwhm_error_ps"] is None
        assert doc["derived_metrics"]["visibility_error"] is None
        if mode == "gaussian-dip":
            # no engine runs in this mode, so the manifest names none
            assert "model" not in doc and "model" not in man and "engine" not in man
            return
        engine = engine or "gaussian"  # model mode's default, recorded as run
        assert man["engine"] == engine
        assert man["model"] == doc["model"]
        assert doc["model"]["model_error"] <= doc["model"]["model_tol"]
        assert doc["model"]["half_width_ps"] == 40.0
        quadrature = doc["model"]["quadrature"]
        assert ("lag_orders" if engine == "gaussian" else "nu_order") in quadrature
        assert quadrature["error_estimate"] <= quadrature["abs_tol"]

    @pytest.mark.parametrize("flags", [["--config", "missing.json"], ["--length-m", "-5"],
                                       ["--engine", "general"]])
    def test_gaussian_dip_rejects_engine_and_config_flags(self, tmp_path, dip_data_file,
                                                          capsys, flags):
        # the Gaussian-dip fit runs no engine, so these flags would be ignored
        out = tmp_path / "fit.json"
        assert run(["fit", "--data", str(dip_data_file), "--mode", "gaussian-dip",
                    "--out", str(out)] + flags) == 2
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    def test_unbracketed_fwhm_is_written_as_null(self, tmp_path, capsys):
        # flat data: the model fit finds no dip, so its FWHM is NaN in Python
        # and null in the file and on stdout, which must both be strict JSON
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        data = tmp_path / "flat.csv"
        data.write_text("\n".join(f"{k * 0.125 - 15.0},100" for k in range(241)))
        out = tmp_path / "fit.json"
        assert run(["fit", "--data", str(data), "--mode", "model", "--out", str(out)]) == 0
        doc = json.loads(out.read_text(), parse_constant=reject)
        summary = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["derived_metrics"]["fwhm_ps"] is None
        assert summary["fwhm_ps"] is None
        assert doc["message"].endswith("FWHM not bracketed")


class TestOverlapCommand:
    # without --out the manifest lands in the working directory, so run
    # these from a scratch dir
    @pytest.fixture(autouse=True)
    def _scratch_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    def test_solve_for_angle(self, capsys):
        assert run(["overlap", "--target", "0.943",
                    "--d-mm", "5", "--lambda-nm", "1550"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theta_urad"] == pytest.approx(47.69, abs=0.05)
        assert doc["achieved_overlap"] == pytest.approx(0.943, abs=1e-9)

    def test_manifest_records_the_solver(self, tmp_path, capsys):
        assert run(["overlap", "--target", "0.9"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == ["target", "theta_rad", "theta_urad",
                                                             "achieved_overlap"]
        solver = json.loads((tmp_path / "overlap.manifest.json").read_text())["solver"]
        assert solver == dict(imperfections._solve_angle(0.9, 5.0 * 1e-3, 1550.0 * 1e-9)[1])
        assert run(["overlap", "--theta-urad", "10"]) == 0
        assert "solver" not in json.loads((tmp_path / "overlap.manifest.json").read_text())

    def test_forward_evaluation(self, capsys):
        assert run(["overlap", "--theta-urad", "0",
                    "--d-mm", "5", "--lambda-nm", "1550"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overlap"] == 1.0

    def test_requires_one_of_target_or_angle(self):
        assert run(["overlap", "--d-mm", "5", "--lambda-nm", "1550"]) == 2

    def test_out_of_range_target_exits_2(self):
        assert run(["overlap", "--target", "1.5"]) == 2

    def test_writes_json_output(self, tmp_path):
        out = tmp_path / "overlap.json"
        assert run(["overlap", "--target", "0.5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert 0 < doc["theta_rad"] < 1e-3
        assert (tmp_path / "overlap.manifest.json").exists()


def test_dip_and_fit_offer_the_same_engines():
    parsers = cli.build_parser()._subparsers._group_actions[0].choices
    offered = [next(a.choices for a in parsers[command]._actions if a.dest == "engine")
               for command in ("dip", "fit")]
    assert offered[0] == offered[1] and set(offered[0]) <= set(hom._ENGINE_SHAPES)


def test_cli_import_loads_no_scipy():
    code = ("import sys, homsim.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


class TestNegativeNumbers:
    # argparse once read a negative value with an exponent as an option and exited 2
    # with "expected one argument"; only the --flag=value form worked
    @pytest.mark.parametrize("spaced,reference", [
        (["--beta2-ps2-per-km", "-1.16e-1"], ["--beta2-ps2-per-km=-1.16e-1"]),
        (["--delay-min", "-1.5e1", "--delay-max", "1.5e1"], []),
    ], ids=["beta2", "delay-range"])
    def test_spaced_exponent_form_writes_identical_bytes(self, tmp_path, capsys,
                                                         spaced, reference):
        outputs = []
        for flags, name in ((spaced, "spaced"), (reference, "reference")):
            assert run(["dip", *flags, "--out", str(tmp_path / f"{name}.csv")]) == 0
            man = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            del man["wall_clock_s"], man["outputs"]
            outputs.append(((tmp_path / f"{name}.csv").read_bytes(), man,
                            capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flags,message", [
        (["dip", "--delay-min", "-inf"], "need finite delays"),
        (["dip", "--delay-step", "-.5e-2"], "need finite delays"),
        (["jsa", "--span", "-.5e-2"], "--span"),
    ])
    def test_negative_value_reaches_the_command_check(self, tmp_path, capsys, flags, message):
        assert run([*flags, "--out", str(tmp_path / "x.csv")]) == 2
        assert message in capsys.readouterr().err

    def test_option_after_flag_is_still_a_missing_value(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["dip", "--delay-min", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


def test_dense_fit_curve_is_the_fitted_model(tmp_path, dip_data_file):
    # the Gaussian-dip fit and its dense curve evaluate one function, bit for bit
    out = tmp_path / "fit.json"
    assert run(["fit", "--data", str(dip_data_file), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    p = doc["params"]
    delays = np.array(doc["curve"]["delay_ps"])
    model = fitdata.gaussian_dip(delays, p["baseline"], p["visibility"],
                                 p["center_ps"], p["width_ps"])[0]
    assert doc["curve"]["value"] == model.tolist()


# every subcommand, with the manifest it writes when it succeeds (from the working directory)
SUCCEEDING = {
    "jsa": (["jsa", "--n", "5", "--out", "out.csv"], "out.manifest.json"),
    "dip": (["dip", "--delay-step", "0.5", "--out", "out.csv"], "out.manifest.json"),
    "fit-model": (["fit", "--mode", "model", "--data", "counts.csv", "--out", "out.json"],
                  "out.manifest.json"),
    "fit-gaussian-dip": (["fit", "--mode", "gaussian-dip", "--data", "counts.csv",
                          "--out", "out.json"], "out.manifest.json"),
    "overlap": (["overlap", "--target", "0.9"], "overlap.manifest.json"),
    "overlap-out": (["overlap", "--target", "0.9", "--out", "out.json"], "out.manifest.json"),
}

# every subcommand failing as a configuration (2) or numerical (3) error
FAILING = {
    "jsa": (["jsa", "--span", "-1", "--out", "out.csv"], 2),
    "dip-config": (["dip", "--engine", "supergaussian", "--out", "out.csv"], 2),
    "dip-numerical": (["dip", "--delay-min", "-2", "--delay-max", "2", "--out", "out.csv"], 3),
    "fit-model-config": (["fit", "--mode", "model", "--data", "counts.csv",
                          "--length-m", "nan", "--out", "out.json"], 2),
    "fit-model-numerical": (["fit", "--mode", "model", "--data", "counts.csv",
                             "--filter-fwhm-nm=1e30", "--out", "out.json"], 3),
    "fit-gaussian-dip": (["fit", "--mode", "gaussian-dip", "--data", "counts.csv",
                          "--engine", "general", "--out", "out.json"], 2),
    "overlap": (["overlap", "--target", "1.5"], 2),
    "overlap-out": (["overlap", "--target", "1.5", "--out", "out.json"], 2),
}


class TestOneProtocol:
    # main alone writes the manifest, and only after the command's outputs;
    # stdout comes after the manifest, so a failure at any step prints nothing
    @pytest.fixture(autouse=True)
    def _scratch_cwd(self, tmp_path, monkeypatch, dip_data_file):
        monkeypatch.chdir(tmp_path)  # where dip_data_file wrote counts.csv

    @pytest.mark.parametrize("name", SUCCEEDING)
    def test_unwritable_manifest_exits_1_and_prints_nothing(self, tmp_path, capsys, name):
        argv, manifest = SUCCEEDING[name]
        (tmp_path / manifest).mkdir()
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("I/O error: ")

    @pytest.mark.parametrize("name", SUCCEEDING)
    def test_success_writes_manifest_then_prints(self, tmp_path, capsys, name):
        argv, manifest = SUCCEEDING[name]
        assert run(argv) == 0
        man = json.loads((tmp_path / manifest).read_text())
        assert man["command"] == argv[0] and man["wall_clock_s"] > 0.0
        assert capsys.readouterr().out.endswith("\n")

    @pytest.mark.parametrize("name", FAILING)
    def test_failure_leaves_no_manifest(self, tmp_path, capsys, name):
        argv, code = FAILING[name]
        assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert list(tmp_path.glob("*.manifest.json")) == []


# the library functions the traced benchmark wraps on the cli module for its per-layer
# spans, and a subcommand that calls each; cli must look them up there at call time
TRACED = {
    "jsa_grid": ["jsa", "--n", "5"],
    "write_grid_csv": ["jsa", "--n", "5"],
    "dip_curve": ["dip", "--delay-step", "0.5"],
    "dip_metrics": ["dip", "--delay-step", "0.5"],
    "write_curve_csv": ["dip", "--delay-step", "0.5"],
    "ingest_csv": ["fit", "--mode", "model"],
    "fit_model": ["fit", "--mode", "model"],
    "fit_gaussian_dip": ["fit", "--mode", "gaussian-dip"],
    "solve_angle_for_overlap": ["overlap", "--target", "0.9"],
}


@pytest.mark.parametrize("attr", TRACED)
def test_traced_library_calls_go_through_the_cli_module(tmp_path, monkeypatch, dip_data_file,
                                                        attr):
    monkeypatch.chdir(tmp_path)
    calls = []
    original = getattr(cli, attr)

    def counting(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, attr, counting)
    argv = TRACED[attr]
    data = ["--data", str(dip_data_file)] if argv[0] == "fit" else []
    assert run([*argv, *data, "--out", str(tmp_path / "out.x")]) == 0
    assert calls == [attr]
