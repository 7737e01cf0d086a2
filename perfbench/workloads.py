"""The three workloads: seeded inputs, timed operations and their checks.

Every workload is a closed loop with one client.  Work is issued in rounds;
a round holds each kind of operation in the workload's fixed proportions,
and a run always ends on a whole round so the mix, and with it every
percentile, does not depend on where the clock stopped.

Tolerances are the ones the repository's tests use for the same property.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent

# --- tolerances, each taken from the test suite ---------------------------
R0_MAX = 1e-12            # test_hom.py TestZeroDelay: R(0) <= 1e-12
EVEN_REL = 1e-10          # test_hom.py TestSymmetry: approx(rel=1e-10), whose
EVEN_ABS = 1e-12          # absolute floor is pytest's default 1e-12
EDGE_TOL = 0.01           # test_hom.py TestBaseline: R -> 1 within 0.01
ENGINE_AGREE = 1e-4       # test_acceptance.py test_02: general vs closed engine
IDEAL_VIS_TOL = 1e-3      # test_hom.py / test_cli.py: ideal visibility 1 +- 1e-3
JSA_NORM_REL = 1e-14      # test_jsa.py: max |Q| = 1 to rel 1e-14
JSA_SYM_REL = 1e-10       # test_acceptance.py test_10: exchange symmetry
FIT_BASELINE_REL = 1e-5   # test_fitdata.py TestModelFit.test_self_consistency
FIT_SCALE_ABS = 1e-4
FIT_CENTER_ABS = 1e-3
OVERLAP_TOL = 1e-10       # test_acceptance.py test_08: overlap round trip
FWHM_GAUSSIAN = (6.4, 0.3)       # test_acceptance.py test_04
FWHM_SUPERGAUSSIAN = (8.0, 0.4)  # test_acceptance.py test_05

# The recovery tolerances above are stated for noiseless data; a noise of
# 1e-5 of the baseline keeps every dataset distinct and stays far inside them.
NOISE_REL = 1e-5

# Filter shapes each engine is documented for.  The supergaussian engine
# ignores the configured shape (a known defect, see README.md), so it only
# ever sees quartic filters here.
ENGINES_FOR = {
    "gaussian": ("gaussian", "general"),
    "supergaussian4": ("general", "supergaussian"),
    "cascade": ("general",),
}
SHAPES = tuple(ENGINES_FOR)
DATASETS_PER_PAIR = 2


@dataclass
class OpResult:
    kind: str
    latency: float | None
    errors: list[str]
    info: dict = field(default_factory=dict)


class Timed:
    """Times the program work of one op; in a traced round it is the op's root span."""

    def __init__(self, tracer: spans.Tracer | None, kind: str):
        self.tracer, self.kind = tracer, kind
        self.span = None
        self.latency = None

    def __enter__(self):
        if self.tracer is not None:
            self.span = self.tracer.begin("op", kind=self.kind)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.latency = time.perf_counter() - self.t0
        if self.tracer is not None:
            self.tracer.end(self.span)
        return False


def default_delays() -> list[float]:
    """The delay axis ``hom.dip_curve`` uses by default: 301 points on [-15, 15] ps."""
    return [round(k * 0.1, 10) for k in range(-150, 151)]


def curve_errors(label: str, delays, rates, matched: bool) -> list[str]:
    """R(0) = 0 (matched filters only), R even in delay, R -> 1 at both edges."""
    errs = []
    n = len(rates)
    mid = n // 2
    if delays[mid] != 0.0 or any(delays[i] != -delays[n - 1 - i] for i in range(n)):
        return [f"{label}: delay axis is not symmetric about 0"]
    if matched and rates[mid] > R0_MAX:
        errs.append(f"{label}: R(0) = {rates[mid]:.3e} > {R0_MAX}")
    worst = max(abs(rates[i] - rates[n - 1 - i])
                - max(EVEN_REL * max(abs(rates[i]), abs(rates[n - 1 - i])), EVEN_ABS)
                for i in range(mid))
    if worst > 0:
        errs.append(f"{label}: R not even in delay (excess {worst:.3e})")
    edge = max(abs(rates[0] - 1.0), abs(rates[-1] - 1.0))
    if edge > EDGE_TOL:
        errs.append(f"{label}: R at the edges is {edge:.3e} from 1")
    return errs


def fit_errors(label: str, params: dict, converged: bool, truth: dict) -> list[str]:
    """``fit_model`` recovers the seeded baseline, scale and center."""
    errs = [] if converged else [f"{label}: not converged"]
    if abs(params["baseline"] - truth["baseline"]) > FIT_BASELINE_REL * truth["baseline"]:
        errs.append(f"{label}: baseline {params['baseline']} vs {truth['baseline']}")
    if abs(params["scale"] - truth["scale"]) > FIT_SCALE_ABS:
        errs.append(f"{label}: scale {params['scale']} vs {truth['scale']}")
    if abs(params["center"] - truth["center"]) > FIT_CENTER_ABS:
        errs.append(f"{label}: center {params['center']} vs {truth['center']}")
    return errs


def dip_fit_errors(label: str, center: float, converged: bool, truth: dict) -> list[str]:
    """``fit_gaussian_dip`` converges on the seeded center (the dip is even, so
    only the center is free of the Gaussian-versus-engine shape bias)."""
    errs = [] if converged else [f"{label}: not converged"]
    if abs(center - truth["center"]) > FIT_CENTER_ABS:
        errs.append(f"{label}: center {center} vs {truth['center']}")
    return errs


def draw_truths(seed: int, tag: int, cfg, engine: str) -> list[dict]:
    """Seeded engine-shaped coincidence datasets B [1 - S (1 - R(t - C))]."""
    from homsim import hom

    delays = np.array(default_delays())
    out = []
    for j in range(DATASETS_PER_PAIR):
        rng = np.random.default_rng([seed, tag, j])
        truth = {"baseline": float(rng.uniform(100.0, 1000.0)),
                 "scale": float(rng.uniform(0.85, 0.99)),
                 "center": float(rng.uniform(-1.0, 1.0))}
        rates = hom.dip_curve(cfg, engine, delays_ps=delays - truth["center"]).rates
        truth["counts"] = (truth["baseline"] * (1.0 - truth["scale"] * (1.0 - rates))).tolist()
        out.append(truth)
    return out


def noisy(truth: dict, rng) -> list[float]:
    counts = np.asarray(truth["counts"])
    counts = counts + rng.normal(0.0, NOISE_REL * truth["baseline"], counts.size)
    return np.clip(counts, 0.0, None).tolist()


def write_counts(path: Path, delays, counts) -> None:
    with open(path, "w") as fh:
        fh.write("delay_ps,counts\n")
        fh.writelines(f"{d!r},{c!r}\n" for d, c in zip(delays, counts))


# ---------------------------------------------------------------------------
# cli_mix: the installed tool, one subprocess per call
# ---------------------------------------------------------------------------

class CliMix:
    """``python -m homsim.cli`` in a subprocess, nine kinds of call per round.

    Every call pays the import, config, cold tables, output writing and the
    manifest, as a user of the tool does.
    """

    name = "cli_mix"
    op = ("one `python -m homsim.cli` call; nine kinds per round (5 dip variants on "
          "301 delays, jsa --n 257, fit model, fit gaussian-dip, overlap)")
    kinds = ("dip_gaussian", "dip_general", "dip_supergaussian", "dip_mismatch",
             "dip_cascade", "jsa", "fit_model", "fit_gaussian_dip", "overlap")
    # ~30 calls per run: p60 still leaves at least 10 samples above it
    tail_pct = 60.0
    in_process = False

    @staticmethod
    def make_inputs(seed: int, out: Path) -> None:
        from homsim import units

        cfg = units.default_config()
        truths = draw_truths(seed, 0, cfg, "gaussian")
        delays = default_delays()
        for j, truth in enumerate(truths):
            write_counts(out / f"counts{j}.csv", delays,
                         noisy(truth, np.random.default_rng([seed, 1, j])))
            del truth["counts"]
        (out / "truths.json").write_text(json.dumps(truths))

    def prepare(self, seed: int, inputs: Path, tmp: Path, env: dict) -> None:
        self.seed, self.inputs, self.tmp, self.env = seed, inputs, tmp, env
        self.truths = json.loads((inputs / "truths.json").read_text())

    # a traced call runs cli_entry.py, which installs the wrappers itself
    def trace_on(self, tracer) -> None:
        pass

    def trace_off(self, tracer) -> None:
        pass

    def round(self, r: int):
        rng = random.Random(f"{self.seed}-{r}")
        kinds = list(self.kinds)
        rng.shuffle(kinds)
        data = r % DATASETS_PER_PAIR
        mismatch = rng.uniform(0.05, 0.3)
        target = rng.uniform(0.5, 0.99)
        args = {
            "dip_gaussian": ["dip", "--engine", "gaussian", "--out", "curve.csv"],
            "dip_general": ["dip", "--engine", "general", "--out", "curve.csv"],
            "dip_supergaussian": ["dip", "--engine", "supergaussian", "--filter-shape",
                                  "supergaussian4", "--out", "curve.csv"],
            "dip_mismatch": ["dip", "--engine", "general", "--filter-mismatch",
                             repr(mismatch), "--out", "curve.csv"],
            "dip_cascade": ["dip", "--engine", "general", "--filter-shape", "cascade",
                            "--out", "curve.csv"],
            "jsa": ["jsa", "--n", "257", "--out", "grid.csv"],
            "fit_model": ["fit", "--mode", "model", "--data",
                          str(self.inputs / f"counts{data}.csv"), "--out", "fit.json"],
            "fit_gaussian_dip": ["fit", "--mode", "gaussian-dip", "--data",
                                 str(self.inputs / f"counts{data}.csv"), "--out", "fit.json"],
            "overlap": ["overlap", "--target", repr(target), "--out", "overlap.json"],
        }
        expect = {"truth": self.truths[data], "target": target}
        return [(k, lambda tracer, k=k: self._call(tracer, k, args[k], expect)) for k in kinds]

    def _call(self, tracer, kind: str, argv: list[str], expect: dict) -> OpResult:
        work = self.tmp / "op"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        trace_out = self.tmp / "child_spans.json"
        if tracer is not None:
            cmd = [sys.executable, str(HERE / "cli_entry.py"), str(trace_out), *argv]
        else:
            cmd = [sys.executable, "-m", "homsim.cli", *argv]
        with Timed(tracer, kind) as t:
            proc = subprocess.run(cmd, cwd=work, env=self.env, capture_output=True,
                                  text=True, timeout=150)
        if tracer is not None and trace_out.exists():
            spans.graft(tracer.spans, json.loads(trace_out.read_text()), t.span, tracer.op)
            trace_out.unlink()
        info = {"output_bytes": sum(p.stat().st_size for p in work.iterdir()),
                "engine_calls": int(kind.startswith("dip") or kind == "fit_model"),
                "repeat_calls": 0, "first": True}
        if proc.returncode != 0:
            errors = [f"{kind}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        else:
            try:
                errors = self._check(kind, work, proc.stdout, expect)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors = [f"{kind}: unreadable output ({type(exc).__name__}: {exc})"]
        shutil.rmtree(work, ignore_errors=True)
        return OpResult(kind, t.latency, errors, info)

    @staticmethod
    def _check(kind: str, work: Path, stdout: str, expect: dict) -> list[str]:
        errs = []
        main_out = {"jsa": "grid", "fit_model": "fit", "fit_gaussian_dip": "fit",
                    "overlap": "overlap"}.get(kind, "curve")
        manifest = json.loads((work / f"{main_out}.manifest.json").read_text())
        if manifest.get("tool") != "homsim":
            errs.append(f"{kind}: manifest does not name the tool")
        if kind.startswith("dip"):
            rows = (work / "curve.csv").read_text().splitlines()
            if rows[0] != "delay_ps,rate_normalized" or len(rows) != 302:
                return errs + [f"{kind}: curve CSV has {len(rows)} lines, expected 302"]
            delays, rates = zip(*((float(a), float(b)) for a, b in
                                  (row.split(",") for row in rows[1:])))
            mismatched = kind == "dip_mismatch"
            errs += curve_errors(kind, delays, rates, matched=not mismatched)
            metrics = json.loads(stdout)
            vis, fwhm = metrics["visibility"], metrics["fwhm_ps"]
            if mismatched:
                if not vis < 1.0:
                    errs.append(f"{kind}: visibility {vis} not below 1 with mismatched filters")
            elif abs(vis - 1.0) > IDEAL_VIS_TOL:
                errs.append(f"{kind}: visibility {vis}, expected 1 +- {IDEAL_VIS_TOL}")
            ref = {"dip_gaussian": FWHM_GAUSSIAN, "dip_general": FWHM_GAUSSIAN,
                   "dip_supergaussian": FWHM_SUPERGAUSSIAN}.get(kind)
            if ref and abs(fwhm - ref[0]) > ref[1]:
                errs.append(f"{kind}: FWHM {fwhm} ps, expected {ref[0]} +- {ref[1]}")
        elif kind == "jsa":
            rows = (work / "grid.csv").read_text().splitlines()
            n = 257
            if rows[0] != "nu_s,nu_i,re_q,im_q,abs2_q" or len(rows) != n * n + 1:
                return errs + [f"jsa: grid CSV has {len(rows)} lines, expected {n * n + 1}"]
            q = [tuple(map(float, row.split(",")[2:5])) for row in rows[1:]]
            peak = max(v[2] for v in q)
            if abs(peak - 1.0) > 2 * JSA_NORM_REL:  # |Q|^2: twice the |Q| tolerance
                errs.append(f"jsa: max |Q|^2 = {peak!r}, expected 1")
            for i in range(n):
                for j in range(i + 1, n):
                    a, b = q[i * n + j], q[j * n + i]
                    if abs(complex(a[0], a[1]) - complex(b[0], b[1])) > JSA_SYM_REL * math.sqrt(a[2]):
                        return errs + [f"jsa: Q({i},{j}) != Q({j},{i})"]
        elif kind == "fit_model":
            doc = json.loads((work / "fit.json").read_text())
            errs += fit_errors(kind, doc["params"], doc["converged"], expect["truth"])
        elif kind == "fit_gaussian_dip":
            doc = json.loads((work / "fit.json").read_text())
            errs += dip_fit_errors(kind, doc["params"]["center_ps"], doc["converged"],
                                   expect["truth"])
        elif kind == "overlap":
            doc = json.loads((work / "overlap.json").read_text())
            if abs(doc["achieved_overlap"] - expect["target"]) > OVERLAP_TOL:
                errs.append(f"overlap: achieved {doc['achieved_overlap']} for target "
                            f"{expect['target']}")
        return errs


# ---------------------------------------------------------------------------
# param_sweep: a new physical configuration for every curve
# ---------------------------------------------------------------------------

def draw_config(seed: int, k: int):
    """Config ``k`` of the sweep, drawn only from the documented domain.

    Fiber length log-uniform on [10 m, 20 km], beta2 of either sign with
    |beta2| log-uniform on [0.01, 1] ps^2/km, pump and filter FWHM uniform on
    [0.4, 1.6] nm, and the shape cycling through gaussian, supergaussian4 and
    cascade.  A draw is redrawn when |beta2| L sigma_p^2 >= 1 (the
    arctan-branch guard of ``jsa._check_arctan_branch``), or when the
    dispersion phase across a +-6 sigma spectral box exceeds 12 cycles, the
    most a 96-point rule resolves at 8 points per cycle.  Beyond that the
    engines raise their order: about 1 draw in 300, costing several times a
    normal config and hundreds of MB, so whether a run happened to draw one
    would decide its time and peak memory.
    """
    from homsim import units

    rng = np.random.default_rng([seed, k])
    shape = SHAPES[k % len(SHAPES)]
    while True:
        length = 10.0 ** rng.uniform(1.0, math.log10(2.0e4))
        beta2 = float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(-2.0, 0.0)
        cfg = units.build_config(
            length_m=length, beta2_ps2_per_km=beta2, gamma_per_W_m=1.8e-3,
            lambda_p1_nm=1555.92, lambda_p2_nm=1545.95,
            pump_fwhm_nm=rng.uniform(0.4, 1.6), peak_power_W=0.36,
            filter_shape=shape, filter_fwhm_nm=rng.uniform(0.4, 1.6))
        b2l = abs(cfg.fiber.beta2_ps2_per_m) * length
        box = 12.0 * max(cfg.sigma_0_rad_per_ps, cfg.sigma_p_rad_per_ps / 3.0)
        if b2l * cfg.sigma_p_rad_per_ps**2 < 1.0 and b2l * box**2 / (8.0 * math.pi) <= 12.0:
            return cfg, float(rng.uniform(0.05, 0.3))


def sweep_delays(cfg) -> np.ndarray:
    """301 delays over +-max(15 ps, 6/sigma_0): narrow filters give wide dips,
    and the curve must reach its baseline inside the axis."""
    half = max(15.0, 6.0 / cfg.sigma_0_rad_per_ps)
    return np.round(np.arange(-150, 151) * (half / 150.0), 12)


class InProcess:
    """Workloads that call the library in this process; tracing wraps the
    public functions on their modules."""

    in_process = True

    def trace_on(self, tracer) -> None:
        from homsim import fitdata, hom, jsa
        spans.install(tracer, jsa, hom, fitdata)

    def trace_off(self, tracer) -> None:
        tracer.unwrap()


class ParamSweep(InProcess):
    """jsa_grid, every documented engine, and a mismatched-filter curve on a
    freshly drawn config, so no cached table is ever reused."""

    name = "param_sweep"
    op = ("one call group on a new config: jsa_grid 129x129, or dip_curve on 301 "
          "delays plus dip_metrics")
    # ~300 ops per run: p90 leaves about 30 samples above it
    tail_pct = 90.0

    @staticmethod
    def make_inputs(seed: int, out: Path) -> None:
        # the sweep's inputs are its configs; building one round of them is
        # the whole set-up besides the import
        for k in range(len(SHAPES)):
            draw_config(seed, k)

    def prepare(self, seed: int, inputs: Path, tmp: Path, env: dict) -> None:
        from homsim import hom, jsa, quadrature

        self.seed, self.jsa, self.hom = seed, jsa, hom
        # every engine at the general engine's fixed nu-order of 96, so the
        # engines are compared at one quadrature resolution (README.md)
        self.settings = quadrature.QuadratureSettings(gl_order=96)
        self.seen: set = set()
        self.accuracy: dict[str, float] = {}

    def round(self, r: int):
        ops = []
        for k in range(r * len(SHAPES), (r + 1) * len(SHAPES)):
            cfg, mismatch = draw_config(self.seed, k)
            state: dict = {"rates": {}, "visibility": {}}
            ops.append(("jsa_grid", lambda tracer, cfg=cfg: self._jsa(tracer, cfg)))
            for engine in ENGINES_FOR[cfg.filter.shape.value]:
                ops.append((f"curve.{engine}", lambda tracer, cfg=cfg, e=engine, s=state:
                            self._curve(tracer, cfg, e, s)))
            ops.append(("curve.asymmetric", lambda tracer, cfg=cfg, m=mismatch, s=state:
                         self._asymmetric(tracer, cfg, m, s)))
        return ops

    def _jsa(self, tracer, cfg) -> OpResult:
        with Timed(tracer, "jsa_grid") as t:
            grid = self.jsa.jsa_grid(cfg, n_points=129)
        q = grid.values
        errs = []
        if abs(np.max(np.abs(q)) - 1.0) > JSA_NORM_REL:
            errs.append(f"jsa: max |Q| = {np.max(np.abs(q))!r}")
        if np.any(np.abs(q - q.T) > JSA_SYM_REL * np.abs(q)):
            errs.append("jsa: Q is not exchange symmetric")
        return OpResult("jsa_grid", t.latency, errs, {"engine_calls": 0, "repeat_calls": 0})

    def _engine_call(self, key) -> dict:
        info = {"engine_calls": 1, "repeat_calls": int(key in self.seen)}
        self.seen.add(key)
        return info

    def _curve(self, tracer, cfg, engine: str, state: dict) -> OpResult:
        delays = sweep_delays(cfg)
        info = self._engine_call((cfg, engine))
        with Timed(tracer, f"curve.{engine}") as t:
            curve = self.hom.dip_curve(cfg, engine=engine, delays_ps=delays,
                                       settings=self.settings)
            metrics = self.hom.dip_metrics(curve)
        label = f"{engine} engine"
        errs = curve_errors(label, delays.tolist(), curve.rates.tolist(), matched=True)
        if abs(metrics.visibility - 1.0) > IDEAL_VIS_TOL:
            errs.append(f"{label}: visibility {metrics.visibility}")
        state["rates"][engine] = curve.rates
        state["visibility"][engine] = metrics.visibility
        # the closed form is the oracle of the general engine, which is the
        # oracle of the supergaussian one; ENGINES_FOR orders them accordingly
        pair = {"general": "gaussian", "supergaussian": "general"}.get(engine)
        if pair in state["rates"]:
            dev = float(np.max(np.abs(curve.rates - state["rates"][pair])))
            key = f"max_abs_dev.{engine}_vs_{pair}"
            self.accuracy[key] = max(self.accuracy.get(key, 0.0), dev)
            if dev > ENGINE_AGREE:
                errs.append(f"{label} differs from the {pair} engine by {dev:.3e}")
        return OpResult(f"curve.{engine}", t.latency, errs, info)

    def _asymmetric(self, tracer, cfg, mismatch: float, state: dict) -> OpResult:
        from homsim.units import FilterSpec

        delays = sweep_delays(cfg)
        signal = FilterSpec(shape=cfg.filter.shape, fwhm_nm=cfg.filter.fwhm_nm)
        idler = FilterSpec(shape=cfg.filter.shape, fwhm_nm=cfg.filter.fwhm_nm * (1.0 + mismatch))
        info = self._engine_call((cfg, signal, idler))
        with Timed(tracer, "curve.asymmetric") as t:
            curve = self.hom.dip_curve(cfg, engine="asymmetric", delays_ps=delays,
                                       settings=self.settings,
                                       signal_filter=signal, idler_filter=idler)
            metrics = self.hom.dip_metrics(curve)
        errs = curve_errors("asymmetric engine", delays.tolist(), curve.rates.tolist(),
                            matched=False)
        matched = state["visibility"]["general"]
        if metrics.visibility > matched:
            errs.append(f"asymmetric engine: visibility {metrics.visibility} exceeds the "
                        f"matched-filter visibility {matched}")
        return OpResult("curve.asymmetric", t.latency, errs, info)


# ---------------------------------------------------------------------------
# fit_batch: many datasets on a few configs, so the tables stay warm
# ---------------------------------------------------------------------------

class FitBatch(InProcess):
    """CSV ingest, an engine-backed fit and a Gaussian-dip fit per dataset, on
    three fixed configs whose engine tables are built once and then reused."""

    name = "fit_batch"
    op = "one 301-point dataset: ingest_csv + fit_model + fit_gaussian_dip"
    pairs = (("gaussian", "gaussian"), ("gaussian", "general"),
             ("supergaussian4", "general"), ("supergaussian4", "supergaussian"),
             ("cascade", "general"))
    # ~100 datasets per run: p80 leaves about 20 samples above it
    tail_pct = 80.0

    @classmethod
    def make_inputs(cls, seed: int, out: Path) -> None:
        from homsim import units

        truths = [draw_truths(seed, 10 + i, units.default_config(shape), engine)
                  for i, (shape, engine) in enumerate(cls.pairs)]
        (out / "truths.json").write_text(json.dumps(truths))

    def prepare(self, seed: int, inputs: Path, tmp: Path, env: dict) -> None:
        from homsim import fitdata, units

        self.seed, self.fitdata, self.tmp = seed, fitdata, tmp
        self.truths = json.loads((inputs / "truths.json").read_text())
        self.configs = {shape: units.default_config(shape) for shape in SHAPES}
        self.delays = default_delays()
        self.seen: set = set()

    def round(self, r: int):
        rng = np.random.default_rng([self.seed, 2, r])
        order = rng.permutation(len(self.pairs))
        ops = []
        for i in order:
            truth = self.truths[i][int(rng.integers(DATASETS_PER_PAIR))]
            counts = noisy(truth, rng)
            ops.append(("fit", lambda tracer, i=int(i), t=truth, c=counts:
                        self._fit(tracer, i, t, c)))
        return ops

    def _fit(self, tracer, pair: int, truth: dict, counts: list[float]) -> OpResult:
        shape, engine = self.pairs[pair]
        path = self.tmp / "counts.csv"
        write_counts(path, self.delays, counts)
        first = (shape, engine) not in self.seen
        self.seen.add((shape, engine))
        with Timed(tracer, "fit") as t:
            data = self.fitdata.ingest_csv(path)
            model = self.fitdata.fit_model(data, self.configs[shape], engine=engine)
            dip = self.fitdata.fit_gaussian_dip(data)
        label = f"fit_model[{shape}/{engine}]"
        errs = []
        if data.counts.tolist() != counts:
            errs.append("ingest_csv: counts differ from the file written")
        errs += fit_errors(label, model.params, model.converged, truth)
        errs += dip_fit_errors("fit_gaussian_dip", dip.params["center_ps"], dip.converged, truth)
        info = {"engine_calls": 1, "repeat_calls": int(not first), "first": first}
        return OpResult("fit", t.latency, errs, info)


WORKLOADS = {w.name: w for w in (CliMix, ParamSweep, FitBatch)}
