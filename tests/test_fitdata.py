import json
import math
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from homsim import fitdata, hom, units
from homsim.fitdata import (CoincidenceDataset, InsufficientDataError,
                            ParseError, fit_gaussian_dip, fit_model, ingest_csv)
from oracles import _brentq

_TWO_SQRT_2LN2 = 2 * math.sqrt(2 * math.log(2))


def gaussian_dip_counts(delays, baseline=1.0, vis=0.943, center=0.0, fwhm=7.2):
    w = fwhm / _TWO_SQRT_2LN2
    return baseline * (1 - vis * np.exp(-((delays - center) ** 2) / (2 * w**2)))


class TestIngest:
    def test_three_columns_with_header(self, tmp_path):
        p = tmp_path / "data.csv"
        rows = ["delay_ps,counts,sigma"]
        for i in range(10):
            rows.append(f"{i * 0.5},{100 + i},{3.0}")
        p.write_text("\n".join(rows))
        ds = ingest_csv(p)
        assert ds.delays_ps.size == 10
        assert ds.uncertainties is not None
        assert ds.counts[0] == 100

    def test_unsorted_input_is_sorted(self, tmp_path):
        p = tmp_path / "data.csv"
        delays = [3.0, -1.0, 0.0, 2.0, -3.0, 1.0, -2.0, 4.0]
        p.write_text("\n".join(f"{d},{10 + d}" for d in delays))
        ds = ingest_csv(p)
        assert list(ds.delays_ps) == sorted(delays)
        assert set(ds.counts) == {10 + d for d in delays}

    def test_non_numeric_cell_names_line(self, tmp_path):
        p = tmp_path / "data.csv"
        rows = [f"{i},{i}" for i in range(10)]
        rows[6] = "6,oops"  # line 7
        p.write_text("\n".join(rows))
        with pytest.raises(ParseError) as exc:
            ingest_csv(p)
        assert exc.value.line == 7
        assert "line 7" in str(exc.value)

    def test_too_few_points(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("\n".join(f"{i},{i}" for i in range(5)))
        with pytest.raises(InsufficientDataError):
            ingest_csv(p)

    def test_duplicate_delays_averaged_with_warning(self, tmp_path):
        p = tmp_path / "data.csv"
        rows = [f"{i},{10.0}" for i in range(9)]
        rows.append("4,20.0")  # duplicate of delay 4
        p.write_text("\n".join(rows))
        with pytest.warns(UserWarning, match="duplicate"):
            ds = ingest_csv(p)
        assert ds.delays_ps.size == 9
        assert ds.counts[4] == 15.0

    @pytest.mark.parametrize("field,value", [
        ("delays", np.nan), ("delays", np.inf), ("counts", np.nan), ("counts", -np.inf),
        ("uncertainties", 0.0), ("uncertainties", -1.0), ("uncertainties", np.nan),
        ("uncertainties", np.inf)])
    def test_dataset_rejects_nonfinite_or_nonpositive_values(self, field, value):
        arrays = {"delays": np.arange(10.0), "counts": np.full(10, 5.0),
                  "uncertainties": np.ones(10)}
        arrays[field][-1] = value
        with pytest.raises(ValueError, match="must be finite"):
            CoincidenceDataset(*arrays.values())

    @pytest.mark.parametrize("sigma", [None, 1.0])
    def test_dataset_rejects_all_zero_counts(self, sigma):
        # 41 zeros once gave a "converged" Gaussian fit of visibility 1.003, not suspicious
        sigmas = None if sigma is None else np.full(41, sigma)
        with pytest.raises(InsufficientDataError, match="^need at least one positive count$"):
            CoincidenceDataset(np.arange(41.0), np.zeros(41), sigmas)

    @pytest.mark.parametrize("count,sigma", [(1e160, None), (1e200, None), (1e300, None),
                                             (1e-200, None), (1e90, 1e-11), (1.0, 1e-101),
                                             (1e-200, 1e-202), (1e150, 1e200)])
    def test_dataset_rejects_counts_whose_sums_of_squares_leave_the_range(self, count, sigma):
        # counts of 1e160 and up once overflowed the fit's sums of squares: five
        # RuntimeWarnings, then an inf that the JSON writer refused; so did counts of 1e-200
        # with uncertainties of 1e-202, through the baseline's column of J, 1 / sigma.
        # Counts of 1e-200 made the cost 0, and both fits "converged" at their initial guess
        counts = np.full(41, count)
        counts[20] = 0.0
        sigmas = None if sigma is None else np.full(41, sigma)
        with pytest.raises(ValueError, match=r"must lie within \[1e-100, 1e100\]$"):
            CoincidenceDataset(np.arange(41.0), counts, sigmas)

    @pytest.mark.parametrize("fit", [fit_gaussian_dip, fit_model])
    @pytest.mark.parametrize("scale,sigma", [(1e100, None), (1.01e-100, None), (1e90, 1e-9),
                                             (1e-90, 1e-99), (1e90, 1e95)])
    def test_counts_at_the_ends_of_the_range_fit_as_at_1(self, cfg, fit, scale, sigma):
        # the baseline scales and the rest is the fit at 1, whose uniform weights do not
        # move it; warnings are errors in this suite, so an overflow in the sums fails here
        delays = np.round(np.arange(-150, 151) * 0.1, 10)
        counts = gaussian_dip_counts(delays)
        sigmas = None if sigma is None else np.full(delays.size, sigma)
        ref, res = (fit(x) if fit is fit_gaussian_dip else fit(x, cfg)
                    for x in (CoincidenceDataset(delays, counts),
                              CoincidenceDataset(delays, scale * counts, sigmas)))
        assert res.converged
        for k, x in ref.params.items():
            unit = scale if k == "baseline" else 1.0
            assert res.params[k] / unit == pytest.approx(x, rel=1e-9, abs=1e-12), k

    def test_bad_column_count(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,2,3,4\n" * 10)
        with pytest.raises(ParseError):
            ingest_csv(p)

    def test_headerless_file_with_byte_order_mark_keeps_its_first_row(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_bytes(b"\xef\xbb\xbf" + "\n".join(f"{i},{10 + i}" for i in range(10)).encode())
        ds = ingest_csv(p)
        assert ds.delays_ps.size == 10
        assert ds.delays_ps[0] == 0.0 and ds.counts[0] == 10.0

    @pytest.mark.parametrize("end", ["\r\n", "\r", "\n"])
    def test_line_ends_and_spaces_around_cells(self, tmp_path, end):
        p = tmp_path / "data.csv"
        rows = ["delay_ps , counts , sigma"] + [f" {i * 0.5} ,\t{100 + i} , 2.5 " for i in range(10)]
        p.write_bytes(end.join(rows).encode() + end.encode())
        ds = ingest_csv(p)
        assert list(ds.delays_ps) == [i * 0.5 for i in range(10)]
        assert list(ds.counts) == [100.0 + i for i in range(10)]
        assert list(ds.uncertainties) == [2.5] * 10

    def test_blank_lines_in_the_middle_are_skipped(self, tmp_path):
        p = tmp_path / "data.csv"
        rows = [f"{i},{i}" for i in range(10)]
        p.write_text("\n".join(rows[:4] + ["", "   ", "\t"] + rows[4:]) + "\n\n")
        assert list(ingest_csv(p).delays_ps) == list(range(10))

    def test_blank_lines_keep_the_one_pass_parse(self, tmp_path, monkeypatch):
        # interior and trailing blank lines give the dataset of the clean file, and
        # the row walk never runs: only line 1 is checked, as for the clean file
        rows = [f"{0.5 * i},{100.0 + i},{1.0 + 0.1 * i}" for i in range(12)]
        clean, blank = tmp_path / "clean.csv", tmp_path / "blank.csv"
        clean.write_text("delay_ps,counts,sigma\n" + "\n".join(rows) + "\n")
        blank.write_text("delay_ps,counts,sigma\n" + "\n".join(rows[:5] + ["", " \t"] + rows[5:])
                         + "\n\n\r\n")
        checked = []
        walk = fitdata._checked_row
        monkeypatch.setattr(fitdata, "_checked_row", lambda raw, lineno, ncols:
                            checked.append(lineno) or walk(raw, lineno, ncols))
        a, b = ingest_csv(clean), ingest_csv(blank)
        assert checked == [1, 1]
        for field in ("delays_ps", "counts", "uncertainties"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_trailing_comma_is_an_empty_third_cell(self, tmp_path):
        p = tmp_path / "data.csv"
        rows = [f"{i},{i}" for i in range(10)]
        rows[3] = "3,3,"  # line 4
        p.write_text("\n".join(rows))
        with pytest.raises(ParseError, match=r"^line 4: inconsistent column count 3 != 2$"):
            ingest_csv(p)
        # on every row: line 1 does not parse, so it is taken for a header
        p.write_text("\n".join(f"{i},{i}," for i in range(10)))
        with pytest.raises(ParseError, match=r"^line 2: non-numeric cell") as exc:
            ingest_csv(p)
        assert exc.value.line == 2

    def test_non_numeric_row_after_line_1_is_not_a_header(self, tmp_path):
        p = tmp_path / "data.csv"
        rows = [f"{i},{i}" for i in range(10)]
        rows.insert(1, "delay_ps,counts")  # line 2
        p.write_text("\n".join(rows))
        with pytest.raises(ParseError, match=r"^line 2: non-numeric cell \(could not convert "
                                             r"string to float: 'delay_ps'\)$") as exc:
            ingest_csv(p)
        assert exc.value.line == 2

    def test_header_after_a_blank_first_line_is_rejected(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("\ndelay_ps,counts\n" + "\n".join(f"{i},{i}" for i in range(10)))
        with pytest.raises(ParseError, match=r"^line 2: non-numeric cell") as exc:
            ingest_csv(p)
        assert exc.value.line == 2

    def test_three_column_row_after_two_column_rows(self, tmp_path):
        p = tmp_path / "data.csv"
        rows = [f"{i},{i}" for i in range(10)]
        rows[5] = "5,5,1"  # line 6
        p.write_text("\n".join(rows))
        with pytest.raises(ParseError, match=r"^line 6: inconsistent column count 3 != 2$") as exc:
            ingest_csv(p)
        assert exc.value.line == 6


_ROWS = ["0.3,101.5", "-0.7,99.25", "1.1,87.0", "-1.5,140.125", "2.9,150.0", "-2.3,120.5",
         "0.0,60.75", "3.7,149.0"]
_SIGMAS = ["1.5", "2.0", "1.25", "3.0", "2.5", "1.75", "1.0", "2.25"]
_SORTED = ([-2.3, -1.5, -0.7, 0.0, 0.3, 1.1, 2.9, 3.7],
           [120.5, 140.125, 99.25, 60.75, 101.5, 87.0, 150.0, 149.0])


@pytest.mark.parametrize("content,expected", [
    pytest.param(b"delay_ps,counts\n" + "\n".join(_ROWS).encode() + b"\n",
                 _SORTED + (None,), id="lf"),
    pytest.param(b"delay_ps,counts\r\n" + "\r\n".join(_ROWS).encode() + b"\r\n",
                 _SORTED + (None,), id="crlf"),
    pytest.param(b"delay_ps,counts\r" + "\r".join(_ROWS).encode() + b"\r",
                 _SORTED + (None,), id="cr_only"),
    pytest.param("\n".join(_ROWS).encode() + b"\n\n", _SORTED + (None,), id="trailing_blank_line"),
    pytest.param("\n".join(_ROWS[:4] + [""] + _ROWS[4:]).encode(), _SORTED + (None,),
                 id="blank_line_in_middle"),
    pytest.param("\n".join(" {}\t, {} ".format(*row.split(",")) for row in _ROWS).encode(),
                 _SORTED + (None,), id="padded_cells"),
    pytest.param(b"\xef\xbb\xbfdelay_ps,counts\n" + "\n".join(_ROWS).encode(),
                 _SORTED + (None,), id="bom_and_header"),
    pytest.param(b"delay_ps,counts,sigma\n"
                 + "\n".join(f"{row},{s}" for row, s in zip(_ROWS, _SIGMAS)).encode(),
                 _SORTED + ([1.75, 3.0, 2.0, 1.0, 1.5, 1.25, 2.5, 2.25],), id="three_columns"),
    pytest.param("\n".join(_ROWS[:5] + [_ROWS[5] + ",1.75"] + _ROWS[6:]).encode(),
                 ("line 6: inconsistent column count 3 != 2", 6), id="inconsistent_row"),
    pytest.param("\n".join(_ROWS[:3] + ["1.9,n/a"] + _ROWS[3:]).encode(),
                 ("line 4: non-numeric cell (could not convert string to float: 'n/a')", 4),
                 id="non_numeric_middle_row"),
])
def test_ingest_csv_edge_cases(tmp_path, content, expected):
    # one table of line ends, blank lines, padding, headers and bad rows: the
    # one-pass parse and the checked row walk give these arrays, or this error
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    if len(expected) == 2:
        with pytest.raises(ParseError) as exc:
            ingest_csv(path)
        assert (str(exc.value), exc.value.line) == expected
        return
    ds = ingest_csv(path)
    sigmas = None if ds.uncertainties is None else ds.uncertainties.tolist()
    assert (ds.delays_ps.tolist(), ds.counts.tolist(), sigmas) == expected


def _ingest_outcome(path):
    """What ingest_csv makes of the file: the bit patterns of its arrays and its
    warnings, or the type, message and line of what it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = ingest_csv(path)
        except ValueError as exc:
            return type(exc), str(exc), getattr(exc, "line", None)
    return ([None if a is None else a.tobytes()
             for a in (ds.delays_ps, ds.counts, ds.uncertainties)],
            [str(w.message) for w in caught])


# cells that float() and np.loadtxt both read, that only float() reads, or neither
_ODD_CELLS = ["nan", "inf", "-Infinity", "1_0", "\uff11\uff12", "", "n/a", " 7 ", "\t8",
              "+1e3", "0x10", "1e500", "\xa03", "-0.0", "1e-320", "1#2"]
_DELAY = st.one_of(st.floats(-1e3, 1e3).map(repr), st.integers(-99, 99).map(str))
_VALUE = st.one_of(st.floats(1e-3, 1e6).map(repr), st.integers(1, 999).map(lambda k: f" {k}\t"))


@st.composite
def _csv_texts(draw):
    """CSV text of an optional BOM and header, then rows of one drawn column count,
    some blank, some of another count, some with an odd cell, and mixed line ends."""
    ncols = draw(st.sampled_from([2, 2, 3, 1, 4]))
    lines = [draw(st.sampled_from(["delay_ps,counts", "delay_ps,counts,sigma", " t , c "]))
             ] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t "])))
            continue
        n = ncols if kind != 1 else draw(st.integers(1, 4))
        cells = [draw(_DELAY)] + [draw(_VALUE) for _ in range(n - 1)]
        if kind == 2:
            cells[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_ODD_CELLS))
        lines.append(",".join(cells))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""  # a last line without a line end
    return "\ufeff" * draw(st.booleans()) + "".join(map(str.__add__, lines, ends))


def _rows(ncols=2, n=10, end="\n"):
    return "".join(",".join(str(0.5 * i + 0.25 * k) for k in range(ncols)) + end
                   for i in range(n))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "data.csv"


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(text=_csv_texts())
@example(text="delay_ps,counts\r\n" + _rows(end="\r\n"))
@example(text="\ufeff" + _rows(3))
@example(text="\ufeffdelay_ps,counts\n" + _rows())
@example(text="\n \n" + _rows().replace("\n", "\n\t\n", 3) + "  \n\n")
@example(text="delay_ps,counts,sigma\n" + _rows(3))
@example(text=_rows() + "1_0,5\n")
@example(text=_rows() + "\uff11\uff12,5\n")
@example(text=_rows() + "nan,1\ninf,2\nInfinity,3\n")
@example(text=_rows() + "7.5,8,\n")
@example(text=_rows() + "7.5,8#9\n")
@example(text=_rows().replace("\n", ",\n"))
@example(text=_rows(1))
@example(text=_rows(4))
@example(text=_rows(2, 5) + _rows(3, 5))
@example(text=_rows(3, 5) + _rows(2, 5))
@example(text="")
@example(text="delay_ps,counts\n")
@example(text="delay_ps,counts\n" + _rows().rstrip("\n"))
def test_ingest_fast_path_matches_the_checked_walk(csv_path, text):
    # the one np.loadtxt call and the row walk it falls back to give the same arrays,
    # bit for bit, or raise the same error naming the same line
    csv_path.write_text(text, encoding="utf-8", newline="")
    fast = _ingest_outcome(csv_path)
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("forced")):
        walk = _ingest_outcome(csv_path)
    assert fast == walk


class TestGaussianDipFit:
    delays = np.round(np.arange(-150, 151) * 0.1, 10)

    def test_noiseless_recovery(self):
        counts = gaussian_dip_counts(self.delays, baseline=250.0, vis=0.943, fwhm=7.2)
        res = fit_gaussian_dip(CoincidenceDataset(self.delays, counts))
        assert res.converged
        assert res.params["visibility"] == pytest.approx(0.943, abs=1e-8)
        assert res.params["fwhm_ps"] == pytest.approx(7.2, abs=1e-8)
        assert res.params["baseline"] == pytest.approx(250.0, rel=1e-8)
        assert res.residual_norm < 1e-16 * 250.0**2 * self.delays.size

    def test_seeded_noise_visibility_within_tolerance(self):
        truth = gaussian_dip_counts(self.delays)
        rng = np.random.default_rng(20260823)
        worst = 0.0
        for _ in range(100):
            noisy = np.clip(truth + rng.normal(0.0, 0.02, truth.size), 0.0, None)
            res = fit_gaussian_dip(CoincidenceDataset(self.delays, noisy))
            worst = max(worst, abs(res.params["visibility"] - 0.943))
        assert worst <= 0.01

    def test_flat_data_degenerate(self):
        counts = np.full(self.delays.size, 5.0)
        res = fit_gaussian_dip(CoincidenceDataset(self.delays, counts))
        assert res.params["visibility"] == pytest.approx(0.0, abs=1e-6)
        assert "degenerate" in res.message

    @pytest.mark.parametrize("level", [5.0, 3.3, 9.9, 7.0, 42.0, 100.0])
    def test_flat_data_is_flagged_whatever_the_sign_of_its_rounding(self, level):
        # on flat data V is about +-1e-17; its sign once decided whether the fit was
        # suspicious (True at 5.0, 3.3 and 9.9, False at 7.0, 42.0 and 100.0), and then
        # whether the range note followed the degenerate one: a degenerate V notes no range
        delays = np.linspace(-20.0, 20.0, 81)
        res = fit_gaussian_dip(CoincidenceDataset(delays, np.full(delays.size, level)))
        assert abs(res.params["visibility"]) < 1e-15
        assert res.suspicious
        assert res.message == "converged; degenerate: no significant dip"

    def test_visibility_out_of_range_is_noted(self):
        # noisy flat counts: the fit runs off to V ~ 1e13, once with the bare message
        # "converged"
        rng = np.random.default_rng(1)
        for _ in range(5):
            counts = 100.0 + rng.normal(0.0, 1.0, 81)
        res = fit_gaussian_dip(CoincidenceDataset(np.linspace(-20.0, 20.0, 81), counts))
        assert res.params["visibility"] > 1e12
        assert res.suspicious and res.message == "converged; visibility outside [0, 1.05]"

    def test_objective_never_increases(self):
        # damping contract: rerun with a callback-free check via monotone cost
        truth = gaussian_dip_counts(self.delays, vis=0.5, fwhm=4.0)
        rng = np.random.default_rng(5)
        noisy = truth + rng.normal(0, 0.05, truth.size)
        costs = []
        orig = fitdata._levenberg

        def spy(evaluate, p0, **kw):
            def wrapped(p):
                r, jacobian = evaluate(p)
                costs.append(float(r @ r))
                return r, jacobian
            return orig(wrapped, p0, **kw)

        fitdata._levenberg, saved = spy, fitdata._levenberg
        try:
            fit_gaussian_dip(CoincidenceDataset(self.delays, np.clip(noisy, 0, None)))
        finally:
            fitdata._levenberg = saved
        accepted = [costs[0]]
        for c in costs[1:]:
            if c <= accepted[-1]:
                accepted.append(c)
        # every improvement the optimizer accepted is monotone by construction;
        # ensure it actually made progress
        assert accepted[-1] < accepted[0]

    def test_rescaling_invariance_with_free_baseline(self):
        truth = gaussian_dip_counts(self.delays, baseline=1.0)
        rng = np.random.default_rng(17)
        noisy = np.clip(truth + rng.normal(0, 0.01, truth.size), 0, None)
        r1 = fit_gaussian_dip(CoincidenceDataset(self.delays, noisy))
        r2 = fit_gaussian_dip(CoincidenceDataset(self.delays, noisy * 137.0))
        assert r2.params["visibility"] == pytest.approx(r1.params["visibility"], abs=1e-9)
        assert r2.params["fwhm_ps"] == pytest.approx(r1.params["fwhm_ps"], abs=1e-9)
        assert r2.params["baseline"] == pytest.approx(137.0 * r1.params["baseline"], rel=1e-9)

    def test_inverse_variance_weighting_used(self):
        truth = gaussian_dip_counts(self.delays)
        sig = np.ones_like(truth)
        sig[::2] = 100.0  # effectively ignore every other point
        rng = np.random.default_rng(2)
        noisy = truth.copy()
        noisy[::2] += rng.normal(0, 0.5, noisy[::2].size)  # corrupt ignored points
        res = fit_gaussian_dip(CoincidenceDataset(self.delays, np.clip(noisy, 0, None), sig))
        assert res.params["visibility"] == pytest.approx(0.943, abs=1e-3)


@pytest.fixture(scope="module")
def cfg():
    return units.default_config()


@pytest.fixture(scope="module")
def fit_reference():
    return json.loads((Path(__file__).parent / "fit_model_reference.json").read_text())


@pytest.fixture(scope="module")
def gaussian_reference():
    return json.loads((Path(__file__).parent / "fit_gaussian_dip_reference.json").read_text())


FIT_BATCH_PAIRS = [("gaussian", "gaussian"), ("gaussian", "general"),
                   ("supergaussian4", "general"), ("supergaussian4", "supergaussian"),
                   ("cascade", "general")]


def engine_dataset(cfg, engine, seed):
    """301 noisy engine-shaped counts on [-15, 15] ps with a seeded center."""
    rng = np.random.default_rng(seed)
    delays = np.round(np.arange(-150, 151) * 0.1, 10)
    rates = hom.dip_curve(cfg, engine, delays - rng.uniform(-1.0, 1.0)).rates
    return CoincidenceDataset(delays, 600.0 * (1.0 - 0.9 * (1.0 - rates))
                              + rng.normal(0.0, 2.0, delays.size))


class TestModelFit:

    @staticmethod
    def _check_self_consistency(cfg, stage_ps):
        # noise-free engine data on a scan centred on the stage position
        delays = np.round(np.arange(-120, 121) * 0.125, 10) + stage_ps
        baseline, scale, center = 420.0, 0.96, stage_ps + 0.4
        shifted = hom.dip_curve(cfg, "gaussian", delays - center).rates
        counts = baseline * (1 - scale * (1 - shifted))
        res = fit_model(CoincidenceDataset(delays, counts), cfg, engine="gaussian")
        assert res.converged
        assert not res.suspicious
        assert res.params["baseline"] == pytest.approx(baseline, rel=1e-5)
        assert res.params["scale"] == pytest.approx(scale, abs=1e-4)
        assert res.params["center"] == pytest.approx(center, abs=1e-3)
        assert res.residual_norm < 1e-4 * baseline

    def test_self_consistency(self, cfg):
        self._check_self_consistency(cfg, 0.0)

    def test_self_consistency_off_center_stage(self, cfg):
        # a dip far from zero delay must still be fitted on sampled engine
        # values, not on the model's extrapolation beyond its grid
        self._check_self_consistency(cfg, 35.0)

    def test_analytic_jacobian_matches_central_difference(self, cfg, monkeypatch):
        levenberg, seen = fitdata._levenberg, {}

        def spy(evaluate, p0, **kwargs):
            seen.update(evaluate=evaluate, p0=p0)
            return levenberg(evaluate, p0, **kwargs)

        monkeypatch.setattr(fitdata, "_levenberg", spy)
        delays = np.round(np.arange(-150, 151) * 0.1, 10)
        rng = np.random.default_rng(4)
        rates = hom.dip_curve(cfg, "gaussian", delays - 0.6).rates
        counts = 700.0 * (1.0 - 0.9 * (1.0 - rates)) + rng.normal(0.0, 2.0, delays.size)
        p_fit = np.array(list(fit_model(CoincidenceDataset(delays, counts), cfg).params.values()))
        for p in (seen["p0"], p_fit):
            jac = seen["evaluate"](p)[1]()
            for k in range(p.size):
                h = 1e-6 * max(abs(p[k]), 1.0)
                step = np.eye(p.size)[k] * h
                central = (seen["evaluate"](p + step)[0] - seen["evaluate"](p - step)[0]) / (2.0 * h)
                assert np.max(np.abs(jac[:, k] - central)) <= 1e-6 * np.max(np.abs(jac[:, k]))

    def test_params_stable_under_ulp_rate_noise(self, cfg, monkeypatch):
        # nudging every engine rate by one ulp up or down must barely move the
        # fit: a finite-difference Jacobian turned that rounding into derivative
        # noise (median relative change 3.6e-12 on these datasets); the analytic
        # one follows the model (5e-15)
        delays = np.round(np.arange(-150, 151) * 0.1, 10)
        engine_curve = fitdata.dip_curve
        changes = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            b, s, c = rng.uniform(100.0, 1000.0), rng.uniform(0.85, 0.99), rng.uniform(-1.0, 1.0)
            rates = hom.dip_curve(cfg, "gaussian", delays - c).rates
            counts = b * (1.0 - s * (1.0 - rates)) + rng.normal(0.0, 2.0, delays.size)
            data = CoincidenceDataset(delays, np.clip(counts, 0.0, None))
            ref = fit_model(data, cfg)

            def nudged(*args, **kwargs):
                curve = engine_curve(*args, **kwargs)
                up = rng.random(curve.rates.size) < 0.5
                return replace(curve, rates=np.nextafter(curve.rates, np.where(up, 2.0, 0.0)))

            # the model is cached per config: without the clears the nudged
            # engine would never be called, and the next reference would be nudged
            monkeypatch.setattr(fitdata, "dip_curve", nudged)
            fitdata._model.cache_clear()
            res = fit_model(data, cfg)
            monkeypatch.setattr(fitdata, "dip_curve", engine_curve)
            fitdata._model.cache_clear()
            changes.append(max(abs(res.params[k] / ref.params[k] - 1.0) for k in ref.params))
        assert np.median(changes) <= 1e-12

    def test_engine_width_separation(self, cfg):
        # same synthetic dataset fitted by both engine families gives the
        # characteristic width gap between Gaussian and quartic filters
        cfg_sg = units.default_config("supergaussian4")
        delays = np.round(np.arange(-120, 121) * 0.125, 10)
        g = fit_model(
            CoincidenceDataset(delays, gaussian_dip_counts(delays, vis=0.943, fwhm=7.2)),
            cfg, engine="gaussian")
        sg = fit_model(
            CoincidenceDataset(delays, gaussian_dip_counts(delays, vis=0.943, fwhm=7.2)),
            cfg_sg, engine="supergaussian")
        assert g.derived_metrics.fwhm_ps == pytest.approx(6.3, abs=0.3)
        assert sg.derived_metrics.fwhm_ps == pytest.approx(7.7, abs=0.4)
        assert sg.derived_metrics.fwhm_ps > g.derived_metrics.fwhm_ps

    def test_cascade_width_between_engines(self, cfg):
        # phenomenological fit of a cascade-filter synthetic dataset lands
        # between the two pure-filter engine widths
        # per-stage FWHM chosen so the cascade's combined power FWHM is
        # 0.8 nm (solve y^2 + y = 1 for the Gaussian-stage share of ln 2)
        y = (math.sqrt(5) - 1) / 2
        stage_fwhm = 0.8 / math.sqrt(y)
        cfg_cascade = units.build_config(
            length_m=300.0, beta2_ps2_per_km=-0.116, gamma_per_W_m=1.8e-3,
            lambda_p1_nm=1555.92, lambda_p2_nm=1545.95,
            pump_fwhm_nm=0.8, peak_power_W=0.36,
            filter_shape="cascade", filter_fwhm_nm=stage_fwhm)
        delays = np.round(np.arange(-150, 151) * 0.1, 10)
        counts = 100.0 * hom.dip_curve(cfg_cascade, "general", delays).rates
        res = fit_gaussian_dip(CoincidenceDataset(delays, counts))
        g = hom.dip_metrics(hom.dip_curve(cfg, "gaussian")).fwhm_ps
        sg = hom.dip_metrics(hom.dip_curve(units.default_config("supergaussian4"),
                                           "supergaussian")).fwhm_ps
        assert g < res.params["fwhm_ps"] < sg

    @pytest.mark.parametrize("shape,engine", [("gaussian", "gaussian"),
                                              ("supergaussian4", "supergaussian")])
    def test_fwhm_is_the_engine_half_width(self, shape, engine):
        # on noiseless engine data the fitted FWHM is the width at R = 0.5 found
        # by root-finding on the engine, to within the model's error
        cfg = units.default_config(shape)
        delays = np.round(np.arange(-150, 151) * 0.1, 10)
        rates = hom.dip_curve(cfg, engine, delays - 0.3).rates
        counts = 500.0 * (1.0 - 0.95 * (1.0 - rates))
        res = fit_model(CoincidenceDataset(delays, counts), cfg, engine=engine)

        def half(x):
            return hom.dip_curve(cfg, engine, [x]).rates[0] - 0.5
        width = _brentq(half, 0.0, 15.0) - _brentq(half, -15.0, 0.0)
        assert res.derived_metrics.fwhm_ps == pytest.approx(width, abs=1e-4)

    def test_unbracketed_fwhm_is_flagged(self, cfg):
        # flat data: the fit drives the depth scale to ~0, so the fitted
        # curve has no points below its half level
        delays = np.round(np.arange(-120, 121) * 0.125, 10)
        res = fit_model(CoincidenceDataset(delays, np.full(delays.size, 100.0)), cfg)
        assert math.isnan(res.derived_metrics.fwhm_ps)
        assert res.suspicious
        assert res.message.endswith("FWHM not bracketed")

    def test_one_flank_scan_does_not_bracket_fwhm(self, cfg):
        # noiseless engine data whose scan stops 2 ps past the center, inside
        # the right half-width of about 3.1 ps
        delays = np.round(np.arange(-150, 21) * 0.1, 10)
        counts = 500.0 * (1.0 - 0.95 * (1.0 - hom.dip_curve(cfg, "gaussian", delays).rates))
        res = fit_model(CoincidenceDataset(delays, counts), cfg)
        assert res.params["center"] == pytest.approx(0.0, abs=1e-6)
        assert math.isnan(res.derived_metrics.fwhm_ps)
        assert res.suspicious
        assert res.message.endswith("FWHM not bracketed")

    @pytest.mark.parametrize("shape,engine", FIT_BATCH_PAIRS)
    def test_fwhm_is_one_value_per_model(self, shape, engine):
        # the FWHM is the cached model's own half-width, so noise and center
        # do not move it
        cfg = units.default_config(shape)
        fits = [fit_model(engine_dataset(cfg, engine, seed), cfg, engine=engine)
                for seed in range(6)]
        assert len({res.params["center"] for res in fits}) == 6
        assert len({res.derived_metrics.fwhm_ps for res in fits}) == 1

    def test_gaussian_and_general_fwhm_agree(self, cfg):
        data = engine_dataset(cfg, "gaussian", seed=9)
        g, general = (fit_model(data, cfg, engine=engine).derived_metrics.fwhm_ps
                      for engine in ("gaussian", "general"))
        assert general == pytest.approx(g, abs=1e-8)

    def test_unresolved_engine_dip_is_flagged(self, cfg):
        # 21 points over +-10 ns: a model over +-25 ns reaches the knot cap at a
        # 2 ps spacing, where the midpoint check of the 4 ps model across the
        # ~6 ps engine dip is far above the model tolerance
        delays = np.linspace(-1e4, 1e4, 21)
        counts = np.full(delays.size, 100.0)
        counts[10] = 0.0
        res = fit_model(CoincidenceDataset(delays, counts), cfg)
        assert res.suspicious
        assert res.message.endswith("engine dip not resolved by the fit grid")
        assert res.model["knots"] <= fitdata._MODEL_MAX_KNOTS
        assert res.model["model_error"] > fitdata._MODEL_TOL

    def test_fit_leaving_the_model_is_flagged(self, cfg):
        # flat data with one low point at the edge: the center runs off the
        # engine grid, where the model only extrapolates, and the depth
        # scale grows far past 1
        delays = np.linspace(20.0, 50.0, 61)
        counts = np.full(delays.size, 100.0)
        counts[0] = 99.0
        res = fit_model(CoincidenceDataset(delays, counts), cfg)
        assert res.suspicious
        assert "center left the engine grid" in res.message
        assert "depth scale outside [0, 1.05]" in res.message

    @pytest.mark.parametrize("shape,engine", FIT_BATCH_PAIRS)
    def test_model_error_bounds_model_deviation(self, shape, engine):
        cfg = units.default_config(shape)
        res = fit_model(engine_dataset(cfg, engine, seed=6), cfg, engine=engine)
        record = res.model
        assert record["model_error"] <= record["model_tol"] == fitdata._MODEL_TOL
        half = record["half_width_ps"]
        model, cached, _ = fitdata._model(cfg, engine, half)
        assert cached == record
        x = np.sort(np.random.default_rng(7).uniform(-half, half, 2000))
        engine_rates = hom.dip_curve(cfg, engine, x).rates
        assert np.max(np.abs(fitdata._value(*fitdata._piece(model, x)) - engine_rates)) \
            <= record["model_error"]

    @pytest.mark.parametrize("shape,engine", FIT_BATCH_PAIRS)
    def test_model_size_at_40_ps(self, shape, engine):
        # the knots the halving settles on for a 301-point scan over +-15 ps: they
        # set the cost of every cold model build
        record = fitdata._model(units.default_config(shape), engine, 40.0)[1]
        knots = 5121 if shape == "gaussian" else 2561
        assert (record["knots"], record["spacing_ps"]) == (knots, 80.0 / (knots - 1))

    @pytest.mark.parametrize("shape,engine", FIT_BATCH_PAIRS)
    def test_fits_match_the_reference_run(self, shape, engine, fit_reference):
        # 20 seeded fits agree with the ones recorded with the earlier model, a cubic
        # spline through the same knots, to 1e-6 standard errors, in as many iterations
        cfg = units.default_config(shape)
        for seed, ref in enumerate(fit_reference[f"{shape}/{engine}"]):
            res = fit_model(engine_dataset(cfg, engine, seed), cfg, engine=engine)
            assert res.iterations == ref["iterations"], seed
            for k, x in res.params.items():
                assert abs(x - ref["params"][k]) <= 1e-6 * ref["std_errors"][k], (seed, k)
            assert res.derived_metrics.fwhm_ps == pytest.approx(ref["fwhm_ps"], rel=1e-12)
            assert fitdata._BASELINE_NOTE not in res.message, seed

    def test_engine_rate_short_of_its_baseline_is_flagged(self):
        # at a 1e-30 nm filter R is about 1e-122 dt^2 over the whole +-40 ps model grid,
        # so B is not a baseline; at the reference filter R reaches 1 within 1e-7
        delays = np.round(np.arange(-150, 151) * 0.1, 10)
        counts = gaussian_dip_counts(delays, baseline=250.0)
        narrow = units.build_config(**{**units.REFERENCE_PARAMS, "filter_fwhm_nm": 1e-30})
        res = fit_model(CoincidenceDataset(delays, counts), narrow)
        assert res.suspicious and res.message.endswith("; " + fitdata._BASELINE_NOTE)
        res = fit_model(CoincidenceDataset(delays, counts), units.default_config())
        assert not res.suspicious and res.message == "converged"

    def test_warm_fit_makes_no_engine_call(self, cfg, monkeypatch):
        data = engine_dataset(cfg, "gaussian", seed=8)
        fit_model(data, cfg)
        engine_curve, calls = fitdata.dip_curve, []

        def counting(*args, **kwargs):
            calls.append(args)
            return engine_curve(*args, **kwargs)

        monkeypatch.setattr(fitdata, "dip_curve", counting)
        fit_model(engine_dataset(cfg, "gaussian", seed=9), cfg)
        assert calls == []

    def test_cold_and_warm_fits_are_identical(self, cfg):
        data = engine_dataset(cfg, "general", seed=10)
        fitdata._model.cache_clear()
        cold = fit_model(data, cfg, engine="general")
        warm = fit_model(data, cfg, engine="general")
        assert fitdata._model.cache_info().hits >= 1
        assert cold.params == warm.params
        assert cold.model == warm.model

    def test_standard_errors_cover_the_truth(self, cfg):
        # 200 seeded noisy fits with known parameters: each +-1 sigma interval
        # holds the truth with probability 0.683, so its count over 200 fits lies
        # within 137 +- 4 binomial standard deviations (6.6) but for ~6e-5
        delays = np.round(np.arange(-150, 151) * 0.1, 10)
        truth = {"baseline": 500.0, "center": 0.3, "scale": 0.92}
        rates = hom.dip_curve(cfg, "gaussian", delays - truth["center"]).rates
        clean = truth["baseline"] * (1.0 - truth["scale"] * (1.0 - rates))
        rng = np.random.default_rng(20261018)
        hits = dict.fromkeys(truth, 0)
        for _ in range(200):
            res = fit_model(CoincidenceDataset(delays, clean + rng.normal(0.0, 3.0, delays.size)),
                            cfg)
            for k in truth:
                hits[k] += abs(res.params[k] - truth[k]) <= res.std_errors[k]
        assert all(137 - 26 <= n <= 137 + 26 for n in hits.values()), hits

    def test_rejects_unknown_engine_and_params(self, cfg):
        delays = np.arange(10.0)
        data = CoincidenceDataset(delays, np.ones(10))
        with pytest.raises(ValueError):
            fit_model(data, cfg, engine="bogus")


@pytest.mark.parametrize("shape,engine", FIT_BATCH_PAIRS)
def test_gaussian_fits_match_the_reference_run(shape, engine, gaussian_reference):
    # 20 seeded Gaussian-dip fits agree with the recorded ones to 1e-6 standard errors,
    # in as many iterations
    cfg = units.default_config(shape)
    for seed, ref in enumerate(gaussian_reference[f"{shape}/{engine}"]):
        res = fit_gaussian_dip(engine_dataset(cfg, engine, seed))
        assert res.iterations == ref["iterations"], seed
        for k, x in res.params.items():
            assert abs(x - ref["params"][k]) <= 1e-6 * ref["std_errors"][k], (seed, k)


@pytest.mark.parametrize("fit", [fit_gaussian_dip, fit_model])
@pytest.mark.parametrize("shape,engine", FIT_BATCH_PAIRS)
def test_unit_uncertainties_give_the_unweighted_fit(shape, engine, fit):
    # a fit without uncertainties skips the weighting of r and J; weights of 1 are
    # exact, so the weighted fit is the same bit for bit
    cfg = units.default_config(shape)
    for seed in range(4):
        data = engine_dataset(cfg, engine, seed)
        ones = CoincidenceDataset(data.delays_ps, data.counts, np.ones(data.counts.size))
        plain, weighted = (fit(x) if fit is fit_gaussian_dip else fit(x, cfg, engine=engine)
                           for x in (data, ones))
        assert plain.iterations == weighted.iterations, seed
        assert np.array(list(plain.params.values())).tobytes() \
            == np.array(list(weighted.params.values())).tobytes(), seed
        assert plain.covariance.tobytes() == weighted.covariance.tobytes(), seed


def test_model_interpolant_reproduces_a_cubic():
    # the 5-point knot slopes are exact for a quartic, so the Hermite pieces
    # reproduce a cubic and its slope, also one step past either end knot,
    # where the end pieces extrapolate; a slope carries units of y per unit x,
    # so its bound is per knot spacing
    h, n = 0.3, 12
    coef = (0.3, -1.2, 0.7, -2.0)
    model = fitdata._hermite(h, np.polyval(coef, np.arange(-n - 2, n + 3) * h))
    x = np.concatenate([model[0], np.linspace(-(n + 1) * h, (n + 1) * h, 1001)])
    piece = fitdata._piece(model, x)
    y = np.polyval(coef, x)
    scale = np.max(np.abs(y))
    assert np.max(np.abs(fitdata._value(*piece) - y)) <= 1e-14 * scale
    assert np.max(np.abs(fitdata._slope(*piece) - np.polyval(np.polyder(coef), x))) \
        <= 1e-14 * scale / h


@pytest.mark.parametrize("fit", [fit_gaussian_dip, fit_model])
def test_each_trial_point_is_evaluated_once(cfg, monkeypatch, fit):
    # the fit loop calls evaluate once per trial point and builds the Jacobian
    # only at the start and at each accepted point, the trial whose cost does not
    # exceed the last accepted one; a warm fit_model searches the model's knots
    # once per trial point
    data = engine_dataset(cfg, "gaussian", seed=11)
    fit_model(data, cfg)  # warm the model
    levenberg, trials, searches, during_fit = fitdata._levenberg, [], [], {}
    piece = fitdata._piece

    def counting_piece(model, xq):
        searches.append(xq)
        return piece(model, xq)

    def spy(evaluate, p0, **kwargs):
        def counted(p):
            r, jacobian = evaluate(p)
            trial = {"p": p.tobytes(), "cost": float(r @ r), "builds": 0}
            trials.append(trial)

            def build():
                trial["builds"] += 1
                return jacobian()
            return r, build
        searches.clear()
        out = levenberg(counted, p0, **kwargs)
        during_fit["knot_searches"] = len(searches)
        return out

    monkeypatch.setattr(fitdata, "_piece", counting_piece)
    monkeypatch.setattr(fitdata, "_levenberg", spy)
    res = fit(data) if fit is fit_gaussian_dip else fit(data, cfg)
    assert res.converged and len(trials) > res.iterations >= 2
    assert len({t["p"] for t in trials}) == len(trials)
    best = math.inf
    for trial in trials:
        accepted = trial["cost"] <= best
        best = min(best, trial["cost"])
        assert trial["builds"] == accepted
    assert during_fit["knot_searches"] == (len(trials) if fit is fit_model else 0)


def test_converged_is_a_python_bool_when_no_step_is_accepted():
    # the residual is NaN after the first call, as a NaN count makes it, so every
    # trial step is rejected
    calls = []

    def evaluate(p):
        calls.append(p)
        return np.array([1.0 if len(calls) == 1 else np.nan]), lambda: np.array([[1.0]])

    p0 = np.array([1.0])
    p, cost, it, converged, cov = fitdata._levenberg(evaluate, p0, max_iter=10)
    assert type(converged) is bool and not converged
    assert it == 1 and np.array_equal(p, p0)


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6])
def test_no_accepted_step_converges_only_at_a_stationary_point(scale):
    # every trial residual is NaN, so no step is accepted; the cosine of the
    # residual and the Jacobian's column is about 0.5e-6 or 2e-6, inside or outside
    # tau whatever the units of the residual, while the first step is longer than
    # tau standard errors in both cases
    for eps, stationary in ((0.5e-6, True), (2e-6, False)):
        r0 = scale * (np.r_[np.tile([1.0, -1.0], 50), 0.0] + eps)
        calls = []

        def evaluate(p):
            calls.append(p)
            r = r0 if len(calls) == 1 else np.full(r0.size, np.nan)
            return r, lambda: np.ones((r0.size, 1))

        p, cost, it, converged, cov = fitdata._levenberg(evaluate, np.array([1.0]), max_iter=10)
        assert converged is stationary and it == 1 and len(calls) == 41


def test_fit_result_json_round_trip():
    import json
    delays = np.round(np.arange(-150, 151) * 0.1, 10)
    counts = gaussian_dip_counts(delays)
    res = fit_gaussian_dip(CoincidenceDataset(delays, counts))
    doc = json.loads(fitdata.fit_result_to_json(res, dense_curve=(delays, counts)))
    assert doc["converged"]
    assert doc["params"]["visibility"] == pytest.approx(0.943, abs=1e-8)
    assert len(doc["curve"]["delay_ps"]) == delays.size


def test_fit_json_writes_standard_errors_and_reduced_chi2(cfg, monkeypatch):
    import json
    delays = np.round(np.arange(-150, 151) * 0.1, 10)
    rng = np.random.default_rng(12)
    data = CoincidenceDataset(delays, gaussian_dip_counts(delays, baseline=300.0)
                              + rng.normal(0.0, 2.0, delays.size))
    docs = [json.loads(fitdata.fit_result_to_json(res)) | {"covariance": res.covariance}
            for res in (fit_gaussian_dip(data), fit_model(data, cfg))]
    for doc, fitted in zip(docs, (4, 3)):
        assert doc["dof"] == delays.size - fitted
        assert doc["reduced_chi2"] == pytest.approx(doc["residual_norm"] / doc["dof"], rel=1e-15)
        assert set(doc["std_errors"]) == set(doc["params"])
        errors = np.sqrt(np.diag(doc["covariance"]))
        assert [doc["std_errors"][k] for k in list(doc["params"])[:fitted]] == list(errors)
    widths = docs[0]["std_errors"]
    assert widths["fwhm_ps"] == pytest.approx(_TWO_SQRT_2LN2 * widths["width_ps"], rel=1e-15)
    bare = fitdata.FitResult(params={"baseline": 1.0}, residual_norm=0.0, iterations=1,
                             converged=True)
    assert json.loads(fitdata.fit_result_to_json(bare))["std_errors"] == {"baseline": None}
    # without a covariance every standard error, the derived FWHM's included, is None
    monkeypatch.setattr(fitdata, "_levenberg",
                        lambda evaluate, p0, **kwargs: (p0, 1.0, 1, True, None))
    for res in (fit_gaussian_dip(data), fit_model(data, cfg)):
        assert res.covariance is None
        assert res.std_errors == dict.fromkeys(res.params)


@pytest.mark.parametrize("fit", [fit_gaussian_dip, fit_model])
def test_fit_does_not_depend_on_the_units_of_the_counts(cfg, fit, monkeypatch):
    # counts x1e-12, x1e-9 and x1e6 (baseline and noise alike) give the same fit, the
    # baseline scaled: a stop test in absolute units ended the small-count fits
    # early, up to 7.6e-3 sigma away.  The damping is diag J^T J with no absolute
    # floor, so they also take the path of x1, the same evaluations and iterations
    # (a floor of 1e-12 made the x1e-12 fits take 9 evaluations where x1 takes 4)
    levenberg, runs = fitdata._levenberg, []

    def spy(evaluate, p0, **kwargs):
        calls = []
        result = levenberg(lambda p: calls.append(p) or evaluate(p), p0, **kwargs)
        runs.append((len(calls), result[2]))
        return result

    monkeypatch.setattr(fitdata, "_levenberg", spy)
    for seed in range(10):
        data = engine_dataset(cfg, "gaussian", seed)
        ref = fit(data) if fit is fit_gaussian_dip else fit(data, cfg)
        ref_run = runs[-1]
        for factor in (1e-12, 1e-9, 1e6):
            scaled = CoincidenceDataset(data.delays_ps, data.counts * factor)
            res = fit(scaled) if fit is fit_gaussian_dip else fit(scaled, cfg)
            assert res.converged and runs[-1] == ref_run, (seed, factor)
            for k, v in ref.params.items():
                unit = factor if k == "baseline" else 1.0
                assert abs(res.params[k] / unit - v) <= 1e-6 * ref.std_errors[k], (seed, factor, k)


def test_fits_stop_at_the_least_squares_oracle(monkeypatch):
    # on the five fit_batch pairs both fits land within 1e-6 sigma of scipy's
    # MINPACK Levenberg-Marquardt run to tight tolerances on the same residual and
    # Jacobian, and the stop spends few trials: the rejection spiral at the
    # rounding floor took 13.6 per fit on these datasets
    optimize = pytest.importorskip("scipy.optimize")
    levenberg, runs = fitdata._levenberg, []

    def spy(evaluate, p0, **kwargs):
        run = {"evaluate": evaluate, "p0": p0, "trials": 0}
        runs.append(run)

        def counted(p):
            run["trials"] += 1
            return evaluate(p)
        return levenberg(counted, p0, **kwargs)

    monkeypatch.setattr(fitdata, "_levenberg", spy)
    for shape, engine in FIT_BATCH_PAIRS:
        cfg = units.default_config(shape)
        for seed in range(4):
            data = engine_dataset(cfg, engine, seed=20 + seed)
            for fit in (lambda: fit_model(data, cfg, engine=engine),
                        lambda: fit_gaussian_dip(data)):
                res, run = fit(), runs[-1]
                oracle = optimize.least_squares(
                    lambda p: run["evaluate"](p)[0], run["p0"],
                    jac=lambda p: run["evaluate"](p)[1](), method="lm",
                    xtol=1e-15, ftol=1e-15, gtol=1e-15)
                assert res.converged and oracle.success
                for k, x in zip(res.params, oracle.x):
                    assert abs(res.params[k] - x) <= 1e-6 * res.std_errors[k], (shape, engine, k)
    assert np.mean([run["trials"] for run in runs]) <= 6.0


@pytest.mark.parametrize("fit", [fit_gaussian_dip, fit_model])
def test_reduced_chi2_far_from_1_is_flagged_with_uncertainties(cfg, fit):
    # counts with noise sigma = 2: the stated sigma gives a reduced chi2 near 1, a
    # column 3x too large or too small one near 1/9 or 9, far outside 1 +- 5 sqrt(2/dof)
    data = engine_dataset(cfg, "gaussian", seed=13)
    results = {}
    for label, sigma in (("none", None), ("true", 2.0), ("large", 6.0), ("small", 2.0 / 3.0)):
        uncertainties = None if sigma is None else np.full(data.counts.size, sigma)
        weighted = CoincidenceDataset(data.delays_ps, data.counts, uncertainties)
        results[label] = fit(weighted) if fit is fit_gaussian_dip else fit(weighted, cfg)
    for label in ("none", "true"):
        assert not results[label].suspicious
        assert results[label].message == "converged"
    assert abs(results["true"].residual_norm / results["true"].dof - 1.0) < 0.2
    for label in ("large", "small"):
        assert results[label].suspicious
        assert results[label].message == "converged; " + fitdata._CHI2_NOTE
