"""homsim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root (or any directory: paths are resolved from this
file).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit, the failure rate and the environment.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
TRACE_DIR = ROOT / ".perfbench_out"

# BLAS/OpenMP pools pinned to one thread on every commit, before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}

CURVE_ENGINES = ("gaussian", "general", "supergaussian", "asymmetric")


def layer_units(cli_kinds) -> dict:
    """Unit of every per-layer metric, in the order they are printed."""
    return {
        "import.homsim_s": "s",
        **{f"cli.{kind}_s": "s" for kind in cli_kinds},
        "cli.self_s": "s",
        "cli.output_bytes": "bytes",
        "jsa.jsa_grid_s": "s",
        "jsa.grid_points_per_s": "1/s",
        "jsa.write_grid_csv_s": "s",
        "hom.write_curve_csv_s": "s",
        **{f"hom.dip_curve_cold_s.{e}": "s" for e in CURVE_ENGINES},
        "hom.delays_per_s": "1/s",
        "hom.dip_metrics_s": "s",
        "fitdata.fit_model_first_s": "s",
        "fitdata.fit_model_warm_s": "s",
        "fitdata.fit_gaussian_dip_s": "s",
        "fitdata.ingest_csv_s": "s",
        "fitdata.iterations": "count",
        "imperfections.solve_angle_for_overlap_s": "s",
        "workload.repeat_config_share": "fraction",
        "trace.overhead_frac": "fraction",
    }


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    s = sorted(values)
    h = (len(s) - 1) * pct / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def tail(values: list[float], pct: float) -> tuple[float, float, int]:
    """The workload's tail percentile, lowered if fewer than 10 samples lie above it."""
    for p in range(int(pct), 0, -1):
        v = percentile(values, p)
        beyond = sum(x > v for x in values)
        if beyond >= 10:
            return float(p), v, beyond
    v = percentile(values, pct)
    return pct, v, sum(x > v for x in values)


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def rate(num, den) -> float:
    den = sum(den)
    return sum(num) / den if den > 0 else 0.0


def environment(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def set_up(name: str, seed: int, tmp: Path, env: dict, calibration) -> tuple[list, Path]:
    """Fresh interpreters that import homsim and write the inputs.

    Returns (wall time, import time, slowdown) per interpreter.
    """
    probes = []
    for i in range(SETUP_REPEATS):
        out = tmp / f"inputs{i}"
        out.mkdir(parents=True)
        before = calibration.sample()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name,
                               str(seed), str(out)],
                              env=env, capture_output=True, text=True, timeout=150)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}")
        import_s = json.loads(proc.stdout.splitlines()[-1])["import_s"]
        probes.append((wall, import_s, 0.5 * (before + calibration.sample())))
    return probes, tmp / "inputs0"


def measure(workload, seconds: float, trace: bool, tracer, calibration, OpResult) -> list:
    """Whole rounds until ``seconds`` have passed.

    With tracing, even rounds are traced and odd rounds are not, so the
    overhead is measured on the same mix; at least three rounds run.  Each
    op records the machine slowdown measured on either side of it.
    """
    ops = []
    round_times = []
    start = time.perf_counter()
    before = calibration.sample()
    r = 0
    while True:
        traced = trace and r % 2 == 0
        t0 = time.perf_counter()
        if traced:
            workload.trace_on(tracer)
        try:
            for kind, op in workload.round(r):
                tracer.op = len(ops)
                try:
                    res = op(tracer if traced else None)
                except Exception as exc:  # a failing call is a failed op, not a crash
                    res = OpResult(kind, None, [f"{kind}: {type(exc).__name__}: {exc}"])
                after = calibration.sample()
                res.info.update(round=r, traced=traced, slowdown=0.5 * (before + after))
                before = after
                ops.append(res)
        finally:
            if traced:
                workload.trace_off(tracer)
        round_times.append(time.perf_counter() - t0)
        r += 1
        elapsed = time.perf_counter() - start
        if r >= (3 if trace else 1) and elapsed + 0.5 * statistics.mean(round_times) >= seconds:
            return ops


def end_to_end(ops, probes, tail_pct: float, in_process: bool, scaled: bool):
    lat = [o.latency / (o.info["slowdown"] if scaled else 1.0)
           for o in ops if o.latency is not None]
    p, tail_v, beyond = tail(lat, tail_pct)
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": statistics.median(wall / (slow if scaled else 1.0)
                                     for wall, _, slow in probes),
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_v,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    notes = {"latency_tail_s": f"p{p:g}, {beyond} of {len(lat)} samples beyond it",
             "peak_rss_mb": "max RSS of " + ("this process" if in_process else
                                             "any CLI subprocess")}
    return metrics, notes


def check_trace(ops, spans_, selfs) -> None:
    """Within each op, the self times of its spans add up to no more than the op."""
    total: dict[int, float] = {}
    root: dict[int, float] = {}
    for s, own in zip(spans_, selfs):
        if s["name"] == "op":
            root[s["op"]] = s["end"] - s["start"]
        else:
            total[s["op"]] = total.get(s["op"], 0.0) + own
    for op, dur in root.items():
        if total.get(op, 0.0) > dur + 1e-9:
            ops[op].errors.append(f"trace: child self times {total[op]:.6f} s exceed "
                                  f"the op's {dur:.6f} s")


def per_layer(ops, spans_, selfs, probes, cli_kinds, scaled: bool) -> dict:
    def slow(o):
        return o.info["slowdown"] if scaled else 1.0

    def named(name, where=lambda s: True):
        return [s for s in spans_ if s["name"] == name and where(s)]

    def dur(ss):
        return [(s["end"] - s["start"]) / slow(ops[s["op"]]) for s in ss]

    def op_info(s):
        return ops[s["op"]].info

    traced = [o for o in ops if o.info["traced"] and o.latency is not None]
    m = {}
    imports = dur(named("import.homsim"))
    m["import.homsim_s"] = statistics.median(
        imports or [imp / (s if scaled else 1.0) for _, imp, s in probes])
    for kind in cli_kinds:
        m[f"cli.{kind}_s"] = median_or_zero(o.latency / slow(o) for o in traced
                                            if o.kind == kind)
    m["cli.self_s"] = median_or_zero(
        own / slow(ops[s["op"]]) for s, own in zip(spans_, selfs) if s["name"] == "cli.main")
    out_bytes = [o.info["output_bytes"] for o in traced if "output_bytes" in o.info]
    m["cli.output_bytes"] = statistics.mean(out_bytes) if out_bytes else 0.0
    grids = named("jsa.jsa_grid")
    m["jsa.jsa_grid_s"] = median_or_zero(dur(grids))
    m["jsa.grid_points_per_s"] = rate([s["attrs"]["points"] for s in grids], dur(grids))
    m["jsa.write_grid_csv_s"] = median_or_zero(dur(named("jsa.write_grid_csv")))
    m["hom.write_curve_csv_s"] = median_or_zero(dur(named("hom.write_curve_csv")))
    curves = named("hom.dip_curve", lambda s: op_info(s)["repeat_calls"] == 0)
    for e in CURVE_ENGINES:
        m[f"hom.dip_curve_cold_s.{e}"] = median_or_zero(
            dur(s for s in curves if s["attrs"].get("engine") == e))
    curves = named("hom.dip_curve")
    m["hom.delays_per_s"] = rate([s["attrs"]["delays"] for s in curves], dur(curves))
    m["hom.dip_metrics_s"] = median_or_zero(dur(named("hom.dip_metrics")))
    m["fitdata.fit_model_first_s"] = median_or_zero(
        dur(named("fitdata.fit_model", lambda s: op_info(s)["first"])))
    m["fitdata.fit_model_warm_s"] = median_or_zero(
        dur(named("fitdata.fit_model", lambda s: not op_info(s)["first"])))
    m["fitdata.fit_gaussian_dip_s"] = median_or_zero(dur(named("fitdata.fit_gaussian_dip")))
    m["fitdata.ingest_csv_s"] = median_or_zero(dur(named("fitdata.ingest_csv")))
    m["fitdata.iterations"] = sum(
        s["attrs"]["iterations"] for s in spans_
        if s["name"] in ("fitdata.fit_model", "fitdata.fit_gaussian_dip")
        and op_info(s)["round"] == 0 and "iterations" in s["attrs"])
    m["imperfections.solve_angle_for_overlap_s"] = median_or_zero(
        dur(named("imperfections.solve_angle_for_overlap")))
    m["workload.repeat_config_share"] = rate(
        [o.info.get("repeat_calls", 0) for o in ops],
        [o.info.get("engine_calls", 0) for o in ops])
    # round 0 warms what a process warms once, so it is left out of both sides
    later = [o for o in ops if o.info["round"] > 0 and o.latency is not None]
    on = [o.latency / slow(o) for o in later if o.info["traced"]]
    off = [o.latency / slow(o) for o in later if not o.info["traced"]]
    m["trace.overhead_frac"] = 1.0 - (len(on) / sum(on)) / (len(off) / sum(off))
    return m


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "homsim" / "__init__.py").is_file():
        print(f"error: no homsim sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    # one core for this process and every child, so the calibration kernel
    # runs where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC)]
    import calibration
    import spans
    import workloads

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    tmp = TMP / f"{name}-{seed}-{os.getpid()}"
    try:
        calibration.sample()  # first call pays numpy's one-time set-up
        probes, inputs = set_up(name, seed, tmp, env, calibration)
        workload = workloads.WORKLOADS[name]()
        workload.prepare(seed, inputs, tmp, env)
        tracer = spans.Tracer()
        ops = measure(workload, seconds, trace, tracer, calibration, workloads.OpResult)
        if trace:
            selfs = spans.self_times(tracer.spans)
            check_trace(ops, tracer.spans, selfs)
            kinds = workloads.CliMix.kinds
            metrics, raw = (per_layer(ops, tracer.spans, selfs, probes, kinds, scaled)
                            for scaled in (True, False))
            units, notes = layer_units(kinds), {}
            TRACE_DIR.mkdir(exist_ok=True)
            trace_path = TRACE_DIR / f"spans_{name}_seed{seed}.json"
            tracer.dump(trace_path)
        else:
            (metrics, notes), (raw, _) = (
                end_to_end(ops, probes, workload.tail_pct, workload.in_process, scaled)
                for scaled in (True, False))
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP.exists() and not any(TMP.iterdir()):
            TMP.rmdir()

    failed = [o for o in ops if o.errors]
    for o in failed[:10]:
        print("check failed: " + "; ".join(o.errors), file=sys.stderr)
    for key, value in environment(seed).items():
        print(f"env {key} = {value}")
    print(f"workload {name}: {workload.op}; {len(ops)} ops, closed loop, 1 client")
    for key, value in getattr(workload, "accuracy", {}).items():
        print(f"accuracy {key} = {value!r}")
    slowdowns = sorted(o.info["slowdown"] for o in ops)
    print(f"calibration slowdown = {statistics.median(slowdowns)!r} median, "
          f"{slowdowns[0]!r} to {slowdowns[-1]!r} (kernel time over its "
          f"{calibration.REFERENCE_S} s reference; times below are divided by it)")
    if trace:
        print(f"spans written to {trace_path}")
    for key, unit in units.items():
        note = "; " + notes[key] if key in notes else ""
        print(f"metric {key} = {metrics[key]!r} {unit} (raw {raw[key]!r}{note})")
    print(f"metric error_rate = {len(failed) / len(ops)!r} fraction "
          f"({len(failed)} of {len(ops)} ops failed)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def smoke() -> int:
    """Every workload at its smallest size, traced and untraced; checks that each
    metric of BENCHMARK.json is printed with its unit and that every op passed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} ops failed: {proc.stderr[-500:]}")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {wanted}")
            for key, unit in list(wanted.items()) + [("error_rate", "fraction")]:
                if not any(line.startswith(f"metric {key} = ") and f" {unit}" in line
                           for line in lines):
                    problems.append(f"{where}: {key} not printed with unit {unit}")
            if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append(f"{where}: a metric is not a finite number")
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: " + ("FAIL" if problems else "all workloads ran, every check passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("cli_mix", "param_sweep", "fit_batch"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the output")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
