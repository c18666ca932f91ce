"""Run a fixed set of `mxl` CLI scenarios and print the sha256 of every output file.

Each scenario is one `mxl run`, `mxl sweep` or `mxl verify` on a config written
out below, run in a fresh process with MXL_WORKERS=2 inside a temporary
directory. The script prints one line per output file,

    scenario file exit_code sha256

and `scenario - exit_code -` for a scenario that wrote nothing. To check that a
change keeps every output byte, run the script against both source trees and
diff the two listings:

    python scripts/scenario_digests.py > change.txt
    python scripts/scenario_digests.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

No digests are committed: they depend on the numpy and BLAS build.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _solver(max_iters=2000, noise=None, schedule=None, **extra):
    solver = {
        "schedule": schedule or {"kind": "power_law", "gamma0": 1.0, "exponent": 0.5},
        "noise": noise or {"kind": "none"},
        "max_iters": max_iters,
        "stop_residual": 1e-6,
        "seed": 3,
        "log_every": 25,
    }
    solver.update(extra)
    return solver


MAC = {"kind": "mac", "players": 2, "utility": "quadratic", "b": 1.0, "c": 2.0}
EE = {"kind": "ee", "users": 2, "tx_antennas": 2, "rx_antennas": 2, "subcarriers": 2,
      "pmax": 2.0, "pc": 1.0, "pathloss_spread": 1.0, "channel_seed": 8}
RUN = {"mode": "run"}


def _gaussian(sigma, hermitian=True):
    return {"kind": "gaussian", "sigma": sigma, "hermitian": hermitian}


def _relative(level):
    return {"kind": "relative", "level": level}


def _async(probabilities, delay_max=0, mode="bernoulli"):
    return {"probabilities": probabilities, "delay_max": delay_max, "mode": mode}


def _sweep(seeds, grid, threshold=1e-2):
    return {"mode": "sweep", "seeds": seeds, "threshold": threshold, "grid": grid}


# name -> (command, config); a string config names a bundled config file
SCENARIOS = {
    "mac_bundled": ("run", "mac_quadratic.cfg"),
    "ee_bundled": ("run", "ee_2user_noise100.cfg"),
    "mac_async_delay5": ("run", {"game": MAC, "solver": _solver(),
                                 "async": _async([0.5, 0.5], 5), "experiment": RUN}),
    "mac_async_single_raw_gaussian": (
        "run", {"game": MAC, "solver": _solver(noise=_gaussian(0.3, hermitian=False)),
                "async": _async([0.5, 0.9], 2, "single"), "experiment": RUN}),
    "mac_empty_async_oracle": ("run", {"game": MAC, "solver": _solver(reference="oracle"),
                                       "async": {}, "experiment": RUN}),
    "mac_oracle_relative": ("run", {"game": MAC, "solver": _solver(noise=_relative(0.5),
                                                                   reference="oracle"),
                                    "experiment": RUN}),
    "mac_pareto": ("run", {"game": MAC, "solver": _solver(
        noise={"kind": "pareto", "tail_index": 1.5, "scale": 0.2}), "experiment": RUN}),
    "mac3_log_optimized_gaussian": (
        "run", {"game": {"kind": "mac", "players": 3, "utility": "log", "a": 1.0},
                "solver": _solver(schedule={"kind": "optimized", "stability": 1.0},
                                  noise=_gaussian(0.2)),
                "experiment": RUN}),
    "metric_constant_gaussian": (
        "run", {"game": {"kind": "metric", "features": 4, "points": 16},
                "solver": _solver(300, schedule={"kind": "constant", "gamma0": 0.05},
                                  noise=_gaussian(0.1)),
                "experiment": RUN}),
    "ee_8x4x16_relative": (
        "run", {"game": {**EE, "users": 8, "tx_antennas": 4, "rx_antennas": 4,
                         "subcarriers": 16},
                "solver": _solver(30, noise=_relative(0.5), log_every=10), "experiment": RUN}),
    "ee_8x4x16_relative_100": (
        "run", {"game": {**EE, "users": 8, "tx_antennas": 4, "rx_antennas": 4,
                         "subcarriers": 16},
                "solver": _solver(100, noise=_relative(0.5)), "experiment": RUN}),
    "ee_3x2x4_single_delay4_relative": (
        "run", {"game": {**EE, "users": 3, "subcarriers": 4},
                "solver": _solver(300, noise=_relative(0.5)),
                "async": _async([0.5, 0.7, 0.9], 4, "single"), "experiment": RUN}),
    "ee_3x2x4_bernoulli_no_delay_gaussian": (
        "run", {"game": {**EE, "users": 3, "subcarriers": 4},
                "solver": _solver(300, noise=_gaussian(0.2)),
                "async": _async([0.5, 0.7, 0.9]), "experiment": RUN}),
    "ee_async_raw_gaussian": (
        "run", {"game": EE, "solver": _solver(300, noise=_gaussian(0.2, hermitian=False)),
                "async": _async([0.6, 0.8], 3), "experiment": RUN}),
    "mac_bernoulli_delay3": ("run", {"game": MAC, "solver": _solver(noise=_gaussian(0.3)),
                                     "async": _async([0.5, 0.7], 3), "experiment": RUN}),
    "mac_bernoulli_no_delay": ("run", {"game": MAC, "solver": _solver(noise=_gaussian(0.3)),
                                       "async": _async([0.5, 0.7]), "experiment": RUN}),
    "ee_bernoulli_relative": ("run", {"game": EE, "solver": _solver(300, noise=_relative(0.5)),
                                      "async": _async([0.5, 0.7], 2), "experiment": RUN}),
    "ee_async_raw_gaussian_oracle": (
        "run", {"game": EE, "solver": _solver(300, noise=_gaussian(0.2, hermitian=False),
                                              reference="oracle"),
                "async": _async([0.6, 0.8], 3), "experiment": RUN}),
    "mac_defaults": ("run", {"game": {"kind": "mac"}, "experiment": RUN}),
    "ee_1sub_raw_gaussian": (
        "run", {"game": {**EE, "subcarriers": 1},
                "solver": _solver(300, noise=_gaussian(0.2, hermitian=False)), "experiment": RUN}),
    "ee_3x2x4_pareto": (
        "run", {"game": {**EE, "users": 3, "subcarriers": 4},
                "solver": _solver(200, noise={"kind": "pareto", "tail_index": 1.5, "scale": 0.1}),
                "experiment": RUN}),
    "metric_default_relative": (
        "run", {"game": {"kind": "metric", "features": 4},
                "solver": _solver(300, schedule={"kind": "constant", "gamma0": 0.05},
                                  noise=_relative(0.5)),
                "experiment": RUN}),
    "metric_pareto": (
        "run", {"game": {"kind": "metric", "features": 4, "points": 16},
                "solver": _solver(300, schedule={"kind": "constant", "gamma0": 0.05},
                                  noise={"kind": "pareto", "tail_index": 1.5, "scale": 0.1}),
                "experiment": RUN}),
    "metric_oracle_relative": (
        "run", {"game": {"kind": "metric", "features": 4, "points": 16},
                "solver": _solver(300, noise=_relative(0.5), reference="oracle", log_every=10),
                "experiment": RUN}),
    "ee_single_user_relative": (
        "run", {"game": {**EE, "users": 1, "subcarriers": 3},
                "solver": _solver(200, noise=_relative(0.5)), "experiment": RUN}),
    "ee_relative_oracle": (
        "run", {"game": EE, "solver": _solver(300, noise=_relative(0.5), reference="oracle",
                                              log_every=10),
                "experiment": RUN}),
    "ee_3x2x4_gaussian": (
        "run", {"game": {**EE, "users": 3, "subcarriers": 4},
                "solver": _solver(200, noise=_gaussian(0.1)), "experiment": RUN}),
    "sweep_mac_sigma_exponent": (
        "sweep", {"game": MAC, "solver": _solver(noise=_gaussian(0.0)),
                  "experiment": _sweep(3, {"solver.noise.sigma": [0.0, 0.2],
                                           "solver.schedule.exponent": [0.5, 0.7, 1.0]})}),
    "sweep_ee_relative": (
        "sweep", {"game": EE, "solver": _solver(1000, noise=_relative(0.0)),
                  "experiment": _sweep(4, {"solver.noise.level": [0.0, 0.5, 1.0]})}),
    "sweep_mac_oracle": (
        "sweep", {"game": MAC, "solver": _solver(500, reference="oracle"),
                  "experiment": _sweep(3, {"solver.schedule.exponent": [0.5, 1.0]})}),
    "sweep_ee_defaults_seed": (
        "sweep", {"game": {"kind": "ee"}, "solver": {"max_iters": 500},
                  "experiment": _sweep(2, {"solver.seed": [1, 2]})}),
    "sweep_mac_async": (
        "sweep", {"game": MAC, "solver": _solver(noise=_gaussian(0.2)),
                  "async": _async([0.3, 0.3], 5),
                  "experiment": _sweep(3, {"solver.schedule.exponent": [0.5, 1.0]})}),
    "sweep_metric_max_iters": (
        "sweep", {"game": {"kind": "metric", "features": 4, "points": 16},
                  "solver": _solver(110, schedule={"kind": "constant", "gamma0": 0.05},
                                    noise=_gaussian(0.1)),
                  "experiment": _sweep(3, {"solver.noise.sigma": [0.0, 0.1]}, threshold=0.0)}),
    "sweep_mac3_log_relative": (
        "sweep", {"game": {"kind": "mac", "players": 3, "utility": "log", "a": 1.0},
                  "solver": _solver(500, noise=_relative(0.0)),
                  "experiment": _sweep(4, {"solver.noise.level": [0.75, 1.0]}, threshold=1e-3)}),
    "sweep_ee_3x2x4_gaussian": (
        "sweep", {"game": {**EE, "users": 3, "subcarriers": 4},
                  "solver": _solver(300, noise=_gaussian(0.0), stop_residual=1e-2, log_every=10),
                  "experiment": _sweep(8, {"solver.noise.sigma": [0.05, 0.1]})}),
    "sweep_ee_relative_5_levels": (  # on 2 workers, cells {0, 1, 2} and {3, 4}: one family
        "sweep", {"game": EE, "solver": _solver(1000, noise=_relative(0.0)),
                  "experiment": _sweep(3, {"solver.noise.level": [0.0, 0.25, 0.5, 0.75, 1.0]})}),
    "sweep_mac_raw_sigma_seed": (
        "sweep", {"game": MAC, "solver": _solver(noise=_gaussian(0.0, hermitian=False)),
                  "experiment": _sweep(3, {"solver.noise.sigma": [0.0, 0.2, 0.4],
                                           "solver.seed": [3, 7]})}),
    "verify_mac_rate": (
        "verify", {"game": MAC, "solver": _solver(3000, noise=_relative(0.5)),
                   "experiment": {"mode": "rate", "seeds": 6,
                                  "checkpoints": [30, 100, 300, 1000, 3000]}}),
    "verify_mac_rate_kl_optimized": (
        "verify", {"game": MAC, "solver": _solver(3000, noise=_relative(0.5),
                                                  schedule={"kind": "optimized", "stability": 0.1}),
                   "experiment": {"mode": "rate", "seeds": 6, "metric": "kl",
                                  "checkpoints": [30, 100, 300, 1000, 3000]}}),
    "verify_mac3_log_rate_gaussian": (
        "verify", {"game": {"kind": "mac", "players": 3, "utility": "log", "a": 1.0},
                   "solver": _solver(3000, noise=_gaussian(0.2)),
                   "experiment": {"mode": "rate", "seeds": 6,
                                  "checkpoints": [30, 100, 300, 1000, 3000]}}),
    "verify_ee_rate": (
        "verify", {"game": EE, "solver": _solver(1000, noise=_relative(0.5)),
                   "experiment": {"mode": "rate", "seeds": 4,
                                  "checkpoints": [10, 30, 100, 300, 1000]}}),
    "verify_metric_rate": (
        "verify", {"game": {"kind": "metric", "features": 4, "points": 16},
                   "solver": _solver(1000, noise=_relative(0.5)),
                   "experiment": {"mode": "rate", "seeds": 4,
                                  "checkpoints": [10, 30, 100, 300, 1000]}}),
    "verify_mac_stability": ("verify", {"game": MAC, "solver": _solver(),
                                        "experiment": {"mode": "stability", "samples": 300}}),
    "verify_ee_stability": ("verify", {"game": EE, "solver": _solver(),
                                       "experiment": {"mode": "stability", "samples": 200}}),
    "verify_ee_1sub_stability": ("verify", {"game": {**EE, "subcarriers": 1}, "solver": _solver(),
                                            "experiment": {"mode": "stability", "samples": 200}}),
    "verify_ee_stability_2000": ("verify", {"game": EE, "solver": _solver(),
                                            "experiment": {"mode": "stability", "samples": 2000}}),
    "verify_ee_3x2x4_stability": (
        "verify", {"game": {**EE, "users": 3, "subcarriers": 4}, "solver": _solver(),
                   "experiment": {"mode": "stability", "samples": 300}}),
    "verify_mac3_log_stability": (
        "verify", {"game": {"kind": "mac", "players": 3, "utility": "log", "a": 0.8},
                   "solver": _solver(), "experiment": {"mode": "stability", "samples": 300}}),
    "verify_metric_stability": (
        "verify", {"game": {"kind": "metric", "features": 4, "points": 16}, "solver": _solver(),
                   "experiment": {"mode": "stability", "samples": 200}}),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_scenarios(src: Path) -> list[str]:
    env = {**os.environ, "MXL_WORKERS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    lines = []
    with tempfile.TemporaryDirectory(prefix="mxl-digests-") as tmp:
        for name, (command, config) in SCENARIOS.items():
            if isinstance(config, str):
                cfg = src / "mxl" / "configs" / config
            else:
                cfg = Path(tmp) / f"{name}.cfg"
                cfg.write_text(json.dumps(config, indent=2), encoding="utf-8")
            out = Path(tmp) / name
            code = subprocess.run(
                [sys.executable, "-m", "mxl.cli", command, str(cfg), "--out", str(out), "--quiet"],
                env=env, cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode
            files = sorted(out.iterdir()) if out.is_dir() else []
            lines += [f"{name} {f.name} {code} {_sha256(f)}" for f in files]
            if not files:
                lines.append(f"{name} - {code} -")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to run (default: this checkout's src/)")
    args = parser.parse_args(argv)
    for line in run_scenarios(args.src.resolve()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
