"""mxl benchmark: four workloads driven through the `mxl.cli` entry points.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

With `--trace 0` the workload's units run back to back for S seconds with
tracing off, their outputs are checked, and set-up is timed in fresh
processes; timings are scaled to a reference speed of the machine
(`calibrate.py`), and the last stdout line is a JSON object with the
end-to-end metrics.
With `--trace 1` one unit runs untraced, then the same inputs run twice under
the span tracer; the last line carries the per-layer metrics. Metric names and
units come from BENCHMARK.json. Outputs go to `.bench_out/` at the repository
root. The exit code is 1 when any output check or self-check fails.
"""

from __future__ import annotations

import argparse
import json
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
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
TAIL_MIN_SAMPLES = 100
POOL_PAIRS = 5

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNTED = (
    "spectral.mirror_map", "spectral.require_hermitian", "spectral.Spectrahedron.contains",
    "spectral.eig", "spectral.dual_norm", "games.nash_residual",
    "families.MacGame.payoff_gradient", "families.EeGame.payoff_gradient",
    "families.EeGame.utility", "families.transform_x_to_q", "solver.mxl_step",
    "solver.inject_noise", "solver._log_record", "solver.run", "solver.run_async",
    "verify.rate_experiment", "verify.estimate_strong_stability",
    "verify.max_sampled_gradient_norm", "verify.brute_force_ne", "cli.load_config",
    "cli.build_game", "cli._run_sweep_cell",
)
TIMED = (
    "spectral.mirror_map", "spectral.require_hermitian", "spectral.Spectrahedron.contains",
    "spectral.eig", "spectral.dual_norm", "games.nash_residual",
    "families.MacGame.payoff_gradient", "families.EeGame.payoff_gradient",
    "families.EeGame.utility", "solver.mxl_step", "solver.inject_noise",
    "solver._log_record", "solver.run_async", "verify.rate_experiment",
    "verify.estimate_strong_stability", "verify.max_sampled_gradient_norm",
    "verify.brute_force_ne", "cli.load_config", "cli.build_game",
)
MODULES = ("spectral", "games", "families", "solver", "verify", "cli")
OUTPUTS = ("solver.RunTrace.to_csv", "solver.RunTrace.write_summary", "cli._write_plot_data")
SWEEP_CELL = "cli._run_sweep_cell"


def _die(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


def _tail(values):
    """p90 when at least 10 samples lie above it (n >= 100), else the maximum.

    A fixed percentile keeps the metric comparable when a faster program fits
    more calls into the same run length.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return ordered[-1], f"max of {n}"
    return ordered[n - 1 - n // 10], f"p90 of {n}"


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack")}
    except (TypeError, KeyError, ValueError):
        blas = {"blas": "unknown", "lapack": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "MXL_WORKERS")},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# set-up probe: runs in a fresh interpreter
# ---------------------------------------------------------------------------


def probe(config_path: str) -> int:
    t0 = time.perf_counter()
    import mxl.cli

    resolved = mxl.cli.load_config(config_path)
    game = mxl.cli.build_game(resolved["game"])
    mxl.cli.build_solver_config(resolved, game)
    raw = time.perf_counter() - t0
    import calibrate  # after the timed part: it imports numpy

    print(json.dumps({"raw_s": raw, "scale": calibrate.scale_now()}))
    return 0


def setup_times(config_path: Path) -> list[dict]:
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe",
                               str(config_path)], capture_output=True, text=True, timeout=120,
                              check=True)
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


# ---------------------------------------------------------------------------
# timed run (tracing off)
# ---------------------------------------------------------------------------


def peak_rss_mb(workload) -> float:
    """Own peak plus, with a pool, workers x the largest child's peak (an upper bound)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = int(workload.env.get("MXL_WORKERS", 0))
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024.0


def timed(workload, seed: int, seconds: int, work: Path):
    import calibrate

    pooled = int(workload.env.get("MXL_WORKERS", 0)) > 1
    speed = calibrate.Speed(pool_dir=work / "speed" if pooled else None)
    units = []
    start = time.perf_counter()
    speed.start()
    try:
        while len(units) < workload.min_units or time.perf_counter() - start < seconds:
            units.append(workload.run_unit(seed, len(units), work))
    finally:
        speed.stop()
    extra = workloads.Unit()
    if hasattr(workload, "rerun_check"):
        workload.rerun_check(work, extra)
    rss = peak_rss_mb(workload)
    setup = setup_times(work / "unit0_0.cfg")

    def summary(unit_calls):
        calls = [c for u in unit_calls for c in u]
        total = sum(calls)
        tail, tail_label = _tail(calls)
        return {
            "wall_s": total / len(unit_calls),
            "steps_per_s": sum(u.steps for u in units) / total,
            "runs_per_s": sum(u.runs for u in units) / total,
            "run_p50_ms": statistics.median(calls) * 1e3,
            "run_tail_ms": tail * 1e3,
        }, tail_label

    unit_calls = [[speed.scaled(a, b) for a, b in u.spans] for u in units]
    scaled, tail_label = summary(unit_calls)
    raw, _ = summary([u.call_s for u in units])
    metrics = {
        "setup_s": statistics.median(p["raw_s"] * p["scale"] for p in setup),
        **scaled,
        "peak_rss_mb": rss,
    }
    raw["setup_s"] = statistics.median(p["raw_s"] for p in setup)
    attempted = sum(u.attempted for u in units) + extra.attempted
    failed = sum(u.failed for u in units) + extra.failed
    probes = speed.probe_times()
    details = {
        "units": len(units),
        "calls": sum(len(u.spans) for u in units),
        "run_tail_percentile": tail_label,
        "raw": raw,
        "speed_probes": len(probes),
        "speed_probe_median_s": statistics.median(probes),
        "setup_probes": setup,
        "unit_wall_s": [u.wall_s for u in units],
        "unit_scaled_s": [sum(c) for c in unit_calls],
        "failed_frac": failed / attempted,
        "problems": [p for u in units + [extra] for p in u.problems],
    }
    return metrics, attempted, failed, details


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _traced_unit(workload, seed: int, work: Path):
    tr = tracer.Tracer()
    tr.install(capture=(SWEEP_CELL,))
    try:
        unit = workload.run_unit(seed, 0, work, trace_size=True, env=workload.trace_env)
    finally:
        tr.uninstall()
    return tr, unit


def pool_runs(workload, seed: int, work: Path, workers: int):
    """Untraced pool and serial runs of unit 0, back to back, `POOL_PAIRS` times.

    The serial runs use the traced runs' environment, and a bare perf_counter
    pair around `cli._run_sweep_cell` times each of their cells. Returns the
    ratio serial cell-time sum / (workers x pool wall) of each pair, the serial
    cell seconds of all pairs, and the checked units of all runs.
    """
    import mxl.cli

    cell = mxl.cli._run_sweep_cell
    cell_s, ratios, units = [], [], []

    def timed_cell(args):
        t0 = time.perf_counter()
        out = cell(args)
        cell_s.append(time.perf_counter() - t0)
        return out

    for i in range(POOL_PAIRS):
        (work / f"pool{i}").mkdir()
        (work / f"serial{i}").mkdir()
        pool = workload.run_unit(seed, 0, work / f"pool{i}")
        before = len(cell_s)
        mxl.cli._run_sweep_cell = timed_cell
        try:
            serial = workload.run_unit(seed, 0, work / f"serial{i}", env=workload.trace_env)
        finally:
            mxl.cli._run_sweep_cell = cell
        ratios.append(sum(cell_s[before:]) / (workers * pool.wall_s))
        units += [pool, serial]
    return ratios, cell_s, units


def layer_metrics(tr, traced_units, refs, full, pool) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the first traced run, `tr`.

    `traced_units` and `refs` are the two traced runs and the untraced run made
    just before each; `full` is the untraced full-size unit, `pool` the result
    of `pool_runs` (None without a pool).
    """
    unit = traced_units[0]
    self_ns = tr.self_times()
    tr.check(self_ns, unit.call_s)
    rows = tr.table(self_ns)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return rows.get(name, empty)

    m = {f"{n}.calls": row(n)["calls"] for n in COUNTED}
    m.update({f"{n}.self_s": row(n)["self_s"] for n in TIMED})
    m.update({f"{mod}.self_s": sum(r["self_s"] for n, r in rows.items()
                                   if n.startswith(mod + "."))
              for mod in MODULES})
    m["cli.outputs.self_s"] = sum(row(n)["self_s"] for n in OUTPUTS)
    cells = tr.captured.get(SWEEP_CELL, [])
    m["solver.iterations"] = sum(c["iterations"] for c in cells) if cells else unit.steps
    grads = row("families.EeGame.payoff_gradient")["calls"]
    m["families.transform_x_to_q.per_gradient"] = (
        tr.parent_counts("families.transform_x_to_q", "families.EeGame.payoff_gradient") / grads
        if grads else 0.0)
    m["solver.log_share"] = row("solver._log_record")["total_s"] / tr.root_total_s()
    m["cli.cpu_util"] = full.cpu_s / (full.wall_s * (os.cpu_count() or 1))
    traced_s = [u.wall_s for u in traced_units]
    untraced_s = [u.wall_s for u in refs]
    m["tracing.overhead_s"] = statistics.mean(t - r for t, r in zip(traced_s, untraced_s))
    extra = {"spans": len(tr), "traced_wall_s": traced_s, "untraced_wall_s": untraced_s}

    m["cli.sweep.pool_efficiency"] = m["cli.sweep.cell_ms.p50"] = m["cli.sweep.cell_ms.tail"] = 0.0
    if pool:
        ratios, cell_s, _ = pool
        tail, tail_label = _tail(cell_s)
        m["cli.sweep.pool_efficiency"] = min(statistics.median(ratios), 1.0)
        m["cli.sweep.cell_ms.p50"] = statistics.median(cell_s) * 1e3
        m["cli.sweep.cell_ms.tail"] = tail * 1e3
        extra["cli.sweep.pool_efficiency_pairs"] = ratios
        extra["cli.sweep.pool_efficiency_clamped"] = statistics.median(ratios) > 1.0
        extra["cli.sweep.cell_ms.tail_percentile"] = tail_label

    def mean_us(name):
        r = row(name)
        return r["total_s"] / r["calls"] * 1e6 if r["calls"] else None

    extra["mean_inclusive_us"] = {n: mean_us(n) for n in (
        "solver.mxl_step", "spectral.mirror_map", "families.EeGame.payoff_gradient",
        "families.MacGame.payoff_gradient", "games.nash_residual", "solver._log_record")}
    extra["table"] = {n: r for n, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])
                      if r["calls"]}
    return m, extra


def traced(workload, seed: int, work: Path, spans_path: Path):
    full = workload.run_unit(seed, 0, work / "untraced")
    # before each traced run, an untraced run at trace size and in the traced
    # runs' environment is the reference for outputs and for the tracing overhead
    ref_a = workload.run_unit(seed, 0, work / "reference_a", trace_size=True,
                              env=workload.trace_env)
    tr_a, unit_a = _traced_unit(workload, seed, work / "traced_a")
    ref_b = workload.run_unit(seed, 0, work / "reference_b", trace_size=True,
                              env=workload.trace_env)
    tr_b, unit_b = _traced_unit(workload, seed, work / "traced_b")
    checks = workloads.Unit()
    checks.attempted = 2
    if not ref_a.digest == ref_b.digest == unit_a.digest == unit_b.digest:
        checks.fail("traced outputs differ from untraced outputs of the same inputs")
    counts_a, counts_b = tr_a.counts(), tr_b.counts()
    if counts_a != counts_b:
        diff = {n: (counts_a.get(n), counts_b.get(n)) for n in set(counts_a) | set(counts_b)
                if counts_a.get(n) != counts_b.get(n)}
        checks.fail(f"span counts differ between two traced runs: {diff}")
    workers = int(workload.env.get("MXL_WORKERS", 0))
    pool = pool_runs(workload, seed, work, workers) if workers else None
    metrics, extra = layer_metrics(tr_a, (unit_a, unit_b), (ref_a, ref_b), full, pool)
    tr_a.write(spans_path)
    units = [full, checks, *(pool[2] if pool else ())]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    extra["problems"] = [p for u in units for p in u.problems]
    extra["failed_frac"] = failed / attempted
    extra["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, attempted, failed, extra


# ---------------------------------------------------------------------------


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mxl" / "__init__.py").is_file():
        return _die(f"mxl sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe(args.probe)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    import mxl

    if Path(mxl.__file__).resolve().parent != SRC / "mxl":
        return _die(f"imported mxl from {mxl.__file__}, not from {SRC}")
    names = declared("per_layer" if args.trace else "end_to_end")
    workload = workloads.WORKLOADS[args.workload](SRC)
    env = environment()

    same = json.dumps([workload.configs(args.seed, k, s) for k in (0, 1) for s in (False, True)])
    if same != json.dumps([workload.configs(args.seed, k, s) for k in (0, 1) for s in (False, True)]):
        return _die("generated configs differ for the same seed")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    (OUT / "results").mkdir(exist_ok=True)
    try:
        if args.trace:
            for sub in ("untraced", "reference_a", "traced_a", "reference_b", "traced_b"):
                (work / sub).mkdir()
            metrics, attempted, failed, details = traced(
                workload, args.seed, work, OUT / "results" / f"{tag}-spans.csv.gz")
        else:
            metrics, attempted, failed, details = timed(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = set(names) - set(metrics)
    if missing:
        return _die(f"metrics not computed: {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "details": details, **result}
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("environment " + json.dumps(env))
    print("details " + json.dumps({k: v for k, v in details.items() if k != "table"}))
    if "table" in details:
        print(f"{'span':48s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
        for name, r in details["table"].items():
            print(f"{name:48s} {r['calls']:9d} {r['total_s']:10.4f} {r['self_s']:10.4f}")
    for problem in details["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
