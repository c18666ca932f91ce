"""Run alternating parent/change pairs of `benchmarks/run.py` and write a BENCH_<n>.json.

    python scripts/bench_pairs.py --parent HEAD~1 --out BENCH_23.json --first-seed 601 \\
        [--claim ee_scaled:wall_s:0.15] [--label "what the change does"]

Each side runs from its own copy of its tree (src/, benchmarks/, BENCHMARK.json): the
parent's from `git archive` of the given revision, the change's from the working tree.
Every BENCHMARK.json workload runs as one series of 10 pairs; pair k runs seed
first_seed + k on both sides, one run each of BENCHMARK.json's run_seconds, and the side
that runs first alternates. Pick a first seed no earlier record used. The file is
rewritten after every pair, so an interrupted series keeps the pairs it finished. Per
end-to-end metric it records the median and quartiles of each side (linear
interpolation), the pairs the change won, the parent's interquartile distance over its
median (`parent_spread`) and a verdict, the first that holds of:
"better" when all 10 pairs ran, the change failed no more ops than the parent, won at
least 9 pairs and its median beats the parent's by more than the parent's interquartile
distance; "unresolved" when `parent_spread` exceeds the metric's bound and not every run
of the change beats every run of the parent; "worse than bound" when the median is worse by more than the bound;
else "within bound". Temporary trees go to $TMPDIR.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREE = ("src", "benchmarks", "BENCHMARK.json")
PAIRS = 10
WHAT = ("Alternating parent/change pairs of the repository benchmark, one run per side and "
        "pair, seeds first_seed upward, the side that runs first alternating; each side runs "
        "from its own copy of its tree (src/, benchmarks/, BENCHMARK.json). Quartiles are "
        "linear-interpolation percentiles of the runs; parent_spread is the parent's "
        "interquartile distance over its median.")


def make_trees(parent: str, work: Path) -> dict:
    """The parent's tree from `git archive` and the change's from the working tree."""
    archive = subprocess.run(["git", "archive", parent, *TREE], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(work / "parent", filter="data")
    (work / "change").mkdir()
    for name in TREE:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, work / "change" / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(ROOT / name, work / "change" / name)
    return {"parent": work / "parent", "change": work / "change"}


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict | None]:
    """One benchmark run: its exit code, op counts and metric values, and its environment."""
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines() or ["{}"]
    result = json.loads(lines[-1])
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), None)
    row = {"exit": done.returncode, "attempted": result.get("attempted"),
           "failed": result.get("failed")}
    row.update({k: v["value"] for k, v in result.get("metrics", {}).items()})
    return row, env


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list, metrics: list) -> dict:
    failed = {s: sum(p[s]["failed"] or 0 for p in pairs) for s in ("parent", "change")}
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        sides = {s: [p[s][name] for p in pairs if p[s].get(name) is not None]
                 for s in ("parent", "change")}
        if min(len(v) for v in sides.values()) < 2:
            continue
        parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
        wins = sum((c < p) if lower else (c > p) for p, c in zip(*sides.values()))
        diff = change["median"] - parent["median"]
        spread = parent["q3"] - parent["q1"]
        relative = diff / parent["median"] if parent["median"] else 0.0
        parent_spread = spread / parent["median"] if parent["median"] else 0.0
        if (len(pairs) >= PAIRS and failed["change"] <= failed["parent"]
                and wins >= 0.9 * PAIRS and (-diff if lower else diff) > spread):
            verdict = "better"
        elif parent_spread > spec["bound"] and not (
                max(sides["change"]) < min(sides["parent"]) if lower
                else min(sides["change"]) > max(sides["parent"])):
            verdict = "unresolved"
        elif (relative if lower else -relative) > spec["bound"]:
            verdict = "worse than bound"
        else:
            verdict = "within bound"
        out[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                     "parent": parent, "change": change, "change_better_pairs": wins,
                     "pairs": len(pairs), "relative_change_of_median": relative,
                     "parent_spread": parent_spread, "verdict": verdict}
    out["ops"] = {"attempted": {s: sum(p[s]["attempted"] or 0 for p in pairs)
                                for s in ("parent", "change")}, "failed": failed}
    out["ops"]["nonzero_exits"] = {s: [p["seed"] for p in pairs if p[s]["exit"]]
                                   for s in ("parent", "change")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent tree")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", help="workload:metric:fraction the median improves by")
    parser.add_argument("--first-seed", required=True, type=int,
                        help="seed of the first pair; pick one no earlier record used")
    parser.add_argument("--label", default="the working tree")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    sha = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    report = {"what": WHAT,
              "command": f"python3 benchmarks/run.py --workload <name> --seed <seed> "
                         f"--seconds {seconds} --trace 0",
              "parent": sha, "change": args.label, "environment": None, "workloads": {}}
    if args.claim:
        workload, metric, target = args.claim.split(":")
        report["claim"] = {"workload": workload, "metric": metric,
                           "target": f"median at least {float(target):.0%} better",
                           "rule": "all 10 pairs ran, the change failed no more ops and was "
                                   "better in at least 9 of 10 pairs, and the median difference "
                                   "is larger than the parent's interquartile distance"}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = make_trees(sha, Path(tmp))
        for name in (w["name"] for w in spec["workloads"]):
            pairs = []
            for k in range(PAIRS):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"pair": k, "seed": args.first_seed + k, "first": order[0]}
                for side in order:
                    pair[side], env = run_once(trees[side], name, pair["seed"], seconds)
                    if env and report["environment"] is None:
                        report["environment"] = {k: v for k, v in env.items() if k != "git_sha"}
                    print(f"{name} pair {k} {side}: {json.dumps(pair[side])}", flush=True)
                pairs.append(pair)
                summary = summarise(pairs, spec["end_to_end"])
                report["workloads"][name] = {"summary": summary, "pairs": pairs}
                if args.claim and name == workload and metric in summary:
                    won = summary[metric]
                    gain = won["relative_change_of_median"] * (-1 if won["better"] == "lower" else 1)
                    report["claim"]["met"] = won["verdict"] == "better" and gain >= float(target)
                args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
