"""Run the benchmark on several seeds per workload and summarise the spread.

    python3 benchmarks/baseline.py --seeds 1-10 [--out FILE]

For each workload it runs `run.py --trace 0` once per seed, then `run.py
--trace 1` once on the first seed. For each end-to-end metric it reports the
median, the quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
interquartile distance as a share of the median, beside the metric's bound from
BENCHMARK.json and the spread of the same timing before scaling to the
reference speed (`details.raw`). With `--out` the summary, the environment record and the traced
per-layer numbers are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# traced per-call costs compared with the figures measured when the ROADMAP was written
ROADMAP = (
    ("mac_rate", "solver.mxl_step", "MAC step, 140-150 us"),
    ("mac_rate", "spectral.mirror_map", "1x1 mirror_map, 25 us"),
    ("ee_sweep", "families.EeGame.payoff_gradient", "EE gradient 2x2x2, 100 us"),
    ("ee_scaled", "families.EeGame.payoff_gradient", "EE gradient 8x4x16, 3300 us"),
    ("ee_scaled", "games.nash_residual", "EE residual 8x4x16, 28000-38000 us"),
)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    record = ROOT / ".bench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, traced, env = {}, {}, None
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list] = {}
        raw: dict[str, list] = {}
        for seed in seeds:
            rec = _run(workload, seed, spec["run_seconds"], 0)
            env = rec["environment"]
            print(f"{workload} seed {seed}: attempted {rec['attempted']} failed {rec['failed']}",
                  flush=True)
            for name, m in rec["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, value in rec["details"]["raw"].items():
                raw.setdefault(name, []).append(value)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = _quartiles(vals)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "bound": bounds[name], "values": vals}
            if name in raw:  # the same metric before scaling to the reference speed
                r1, rmed, r3 = _quartiles(raw[name])
                rows[name]["raw"] = {"median": rmed, "spread": (r3 - r1) / rmed,
                                     "values": raw[name]}
            print(f"  {name:14s} median {med:14.4f}  spread {rows[name]['spread']:.4f}"
                  f"  bound {bounds[name]}"
                  + (f"  raw spread {rows[name]['raw']['spread']:.4f}" if name in raw else ""))
        summary[workload] = rows
        rec = _run(workload, seeds[0], spec["run_seconds"], 1)
        traced[workload] = {
            "seed": seeds[0],
            "metrics": {n: m["value"] for n, m in rec["metrics"].items()},
            "details": rec["details"],
        }

    out = {"environment": env, "seeds": seeds, "run_seconds": spec["run_seconds"],
           "end_to_end": summary, "traced": traced}
    out["roadmap_check"] = [
        {"workload": w, "span": span, "roadmap": label,
         "traced_mean_inclusive_us": traced[w]["details"]["mean_inclusive_us"].get(span)}
        for w, span, label in ROADMAP]
    for row in out["roadmap_check"]:
        print(f"{row['roadmap']:40s} traced {row['traced_mean_inclusive_us']}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
