import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from homsim import cli


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

    def test_unknown_config_field_exits_2(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"fiber_length": 300}))
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

    def test_manifest_records_engine_and_quadrature(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["dip", "--engine", "gaussian", "--delay-step", "1.0",
                    "--out", str(out)]) == 0
        man = json.loads((tmp_path / "curve.manifest.json").read_text())
        assert man["engine"] == "gaussian"
        assert man["supergaussian_calibration"] == "half-power-at-configured-fwhm"
        quad = man["quadrature"]
        assert quad["lag_orders"] == [8, 6] and quad["kappa"] >= 1.0
        assert 0.0 <= quad["error_estimate"] <= quad["abs_tol"] == 1e-12

    @pytest.mark.parametrize("engine,shape", [("general", "cascade"),
                                              ("supergaussian", "supergaussian4")])
    def test_manifest_records_spectral_order_and_estimate(self, tmp_path, engine, shape):
        # the orders the search settled on, not the settings' echo: the CLI's
        # supergaussian engine starts at gl_order 96 and passes there
        out = tmp_path / "curve.csv"
        assert run(["dip", "--engine", engine, "--filter-shape", shape,
                    "--out", str(out)]) == 0
        quad = json.loads((tmp_path / "curve.manifest.json").read_text())["quadrature"]
        assert {"rel_tol", "gl_order", "trunc_sigmas"}.isdisjoint(quad)
        assert quad["nu_order"] == {"general": 192, "supergaussian": 96}[engine]
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

    def test_supergaussian_engine_with_gaussian_filter_exits_2(self, tmp_path):
        # the quartic engine must not silently replace the configured filter
        rc = run(["dip", "--engine", "supergaussian", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert not (tmp_path / "x.csv").exists()

    def _bad_delay_axis(self, tmp_path, capsys, flags):
        assert run(["dip", *flags, "--out", str(tmp_path / "x.csv")]) == 2
        assert "--delay" in capsys.readouterr().err
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
                                       ["--delay-step", "1e-320"]])
    def test_nonfinite_delay_axis_exits_2(self, tmp_path, capsys, flags):
        self._bad_delay_axis(tmp_path, capsys, flags)


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
        del config["derived"]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        assert run(options + ["--config", str(cfgfile), "--out", str(replay)]) == 0
        assert first.read_bytes() == replay.read_bytes()


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


def test_cli_import_loads_no_scipy():
    code = ("import sys, homsim.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"
