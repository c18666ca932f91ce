"""The four workloads: configs generated from the seed, one timed unit, output checks.

A unit is one entry-point call (`mac_rate`, `ee_scaled`, `ee_sweep`) or a batch
of `ASYNC_BATCH` calls (`mac_async`). Every call gets its own generated config
file with its seed written in, so the program receives only those configs.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

# Criterion 3's MAC instance (2 players, quadratic b=1, c=2): B-hat is
# estimate_strong_stability(game, (1/3, 1/3), 4000, seed=11) at the seed commit,
# and sigma = relative_sigma(center gradient -0.5, level 0.5) for 1x1 actions.
MAC_GAME = {"kind": "mac", "players": 2, "utility": "quadratic", "b": 1.0, "c": 2.0}
MAC_B_HAT = 0.10208878699928958
MAC_SIGMA = 0.25
RATE_CHECKPOINTS = [100, 316, 1000, 3162, 10000]
# Slope sd over k seeds is about 0.16/sqrt(k); at 20 seeds a draw leaves the
# -0.5 +/- 0.15 band about 3 times in 10^4, at 4 seeds 8 times in 100.
RATE_SEEDS = 20
RATE_TRACE_SEEDS = 2
EE_STEPS = 100
SWEEP_GRID = [0.0, 0.25, 0.5]
SWEEP_SEEDS = 8
SWEEP_WORKERS = 2
ASYNC_BATCH = 10


@dataclass
class Unit:
    """Timings and checked results of one unit."""

    spans: list = field(default_factory=list)  # (start, end) perf_counter of each call
    steps: float = 0.0
    runs: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""
    cpu_s: float = 0.0  # user + system time of this process and its reaped children

    @property
    def call_s(self) -> list:
        return [end - start for start, end in self.spans]

    @property
    def wall_s(self) -> float:
        return sum(self.call_s)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(message)


def _digest(out: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        if (out / name).is_file():
            h.update(name.encode())
            h.update((out / name).read_bytes())
    return h.hexdigest()


def _summary(out: Path) -> dict:
    path = out / "summary.json"
    return json.loads(path.read_text()) if path.is_file() else {"status": None, "iterations": 0}


class Workload:
    name = ""
    command = ""          # mxl.cli entry point
    outputs: tuple = ()   # files whose bytes must not change under tracing
    env: dict = {}        # environment of an untraced unit
    trace_env: dict = {}  # environment of a traced unit
    min_units = 1         # units a timed run makes even when they outlast --seconds

    def __init__(self, src: Path):
        self.src = src

    def configs(self, seed: int, k: int, trace_size: bool = False) -> list[dict]:
        raise NotImplementedError

    def check(self, unit: Unit, rc: int, out: Path, cfg: dict) -> None:
        raise NotImplementedError

    def run_unit(self, seed: int, k: int, work: Path, trace_size: bool = False,
                 env: dict | None = None) -> Unit:
        """Write the unit's configs, call the entry point on each, check the outputs.

        `env` replaces the workload's own environment variables (`self.env`).
        """
        import mxl.cli

        unit = Unit()
        digests = []
        env = self.env if env is None else env
        saved = {key: os.environ.get(key) for key in env}
        os.environ.update(env)
        cpu0 = os.times()
        try:
            for i, cfg in enumerate(self.configs(seed, k, trace_size)):
                path = work / f"unit{k}_{i}.cfg"
                path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
                out = work / f"unit{k}_{i}"
                entry = getattr(mxl.cli, self.command)
                t0 = time.perf_counter()
                rc = entry(str(path), str(out), quiet=True)
                unit.spans.append((t0, time.perf_counter()))
                self.check(unit, rc, out, cfg)
                digests.append(_digest(out, self.outputs))
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        cpu1 = os.times()
        unit.cpu_s = sum(cpu1[:4]) - sum(cpu0[:4])
        unit.digest = hashlib.sha256("".join(digests).encode()).hexdigest()
        return unit


def _unit_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


class MacRate(Workload):
    name = "mac_rate"
    command = "cmd_verify"
    outputs = ("report.json",)

    def configs(self, seed, k, trace_size=False):
        return [{
            "game": dict(MAC_GAME),
            "solver": {
                "schedule": {"kind": "optimized", "stability": MAC_B_HAT},
                "noise": {"kind": "gaussian", "sigma": MAC_SIGMA},
                "max_iters": RATE_CHECKPOINTS[-1],
                "seed": _unit_seed(seed, k),
                "log_every": 10 ** 9,
            },
            "experiment": {
                "mode": "rate",
                "seeds": RATE_TRACE_SEEDS if trace_size else RATE_SEEDS,
                "checkpoints": list(RATE_CHECKPOINTS),
                "metric": "nuclear_distance",
                "slope_target": -0.5,
                "slope_tol": 0.15,
            },
        }]

    def check(self, unit, rc, out, cfg):
        seeds = cfg["experiment"]["seeds"]
        unit.attempted += 1
        unit.runs += seeds
        unit.steps += seeds * RATE_CHECKPOINTS[-1]
        if rc != 0:
            slope = None
            if (out / "report.json").is_file():
                slope = json.loads((out / "report.json").read_text())["rate_fit"]["slope"]
            unit.fail(f"verify exited {rc} (slope {slope}, band -0.5 +/- 0.15, {seeds} seeds)")


class EeScaled(Workload):
    name = "ee_scaled"
    command = "cmd_run"
    outputs = ("trace.csv", "summary.json")

    def configs(self, seed, k, trace_size=False):
        s = _unit_seed(seed, k)
        return [{
            "game": {"kind": "ee", "users": 8, "tx_antennas": 4, "rx_antennas": 4,
                     "subcarriers": 16, "channel_seed": s},
            "solver": {
                "schedule": {"kind": "power_law", "gamma0": 1.0, "exponent": 0.6},
                "noise": {"kind": "relative", "level": 0.5},
                "max_iters": EE_STEPS,
                "stop_residual": 0.0,
                "seed": s,
                "log_every": 25,
            },
            "experiment": {"mode": "run"},
        }]

    def check(self, unit, rc, out, cfg):
        unit.attempted += 1
        unit.runs += 1
        summary = _summary(out)
        unit.steps += summary["iterations"]
        if rc != 2 or summary["status"] != "max_iters":
            unit.fail(f"run exited {rc} with status {summary['status']}, expected max_iters")
            return
        with open(out / "residual_plot.csv", encoding="utf-8") as fh:
            residuals = [float(row["nash_residual"]) for row in csv.DictReader(fh)]
        if not residuals or not all(math.isfinite(r) for r in residuals):
            unit.fail(f"non-finite logged residual in {residuals}")
        elif not residuals[-1] < residuals[0]:
            unit.fail(f"last residual {residuals[-1]} not below first {residuals[0]}")


class EeSweep(Workload):
    name = "ee_sweep"
    command = "cmd_sweep"
    outputs = ("sweep.csv",)
    env = {"MXL_WORKERS": str(SWEEP_WORKERS)}
    trace_env = {"MXL_WORKERS": "1"}  # cells run in-process, where spans see them

    def __init__(self, src: Path):
        super().__init__(src)
        self.base = json.loads((src / "mxl" / "configs" / "ee_2user_noise100.cfg")
                               .read_text(encoding="utf-8"))

    def configs(self, seed, k, trace_size=False):
        cfg = copy.deepcopy(self.base)
        cfg["solver"]["seed"] = _unit_seed(seed, k)
        cfg["experiment"] = {
            "mode": "sweep",
            "grid": {"solver.noise.level": list(SWEEP_GRID)},
            "seeds": SWEEP_SEEDS,
            "threshold": cfg["solver"]["stop_residual"],
        }
        return [cfg]

    def check(self, unit, rc, out, cfg):
        runs = len(SWEEP_GRID) * SWEEP_SEEDS
        unit.attempted += runs  # one op per sweep run
        unit.runs += runs
        if rc != 0:
            unit.fail(f"sweep exited {rc}", runs)
            return
        with open(out / "sweep.csv", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                frac = float(row["converged_fraction"])
                # sweep.csv holds the median over converged runs, not per-run counts
                unit.steps += SWEEP_SEEDS * float(row["median_iterations"])
                missed = round((1.0 - frac) * SWEEP_SEEDS)
                if missed:  # with 8 seeds one miss already drops a cell below 0.9
                    unit.fail(f"noise level {row['solver.noise.level']}: "
                              f"converged fraction {frac}", missed)


class MacAsync(Workload):
    name = "mac_async"
    command = "cmd_run"
    outputs = ("trace.csv", "summary.json")
    min_units = 10  # 100 calls, so run_tail_ms is always a p90 with >= 10 calls beyond it

    def configs(self, seed, k, trace_size=False):
        return [{
            "game": dict(MAC_GAME),
            "solver": {
                "schedule": {"kind": "power_law", "gamma0": 1.0, "exponent": 0.5},
                "noise": {"kind": "none"},
                "max_iters": 20000,
                "stop_residual": 1e-6,
                "seed": _unit_seed(seed, k) * ASYNC_BATCH + r,
                "log_every": 25,
            },
            "async": {"probabilities": [0.5, 0.5], "delay_max": 5, "mode": "bernoulli"},
            "experiment": {"mode": "run"},
        } for r in range(ASYNC_BATCH)]

    def check(self, unit, rc, out, cfg):
        unit.attempted += 1
        unit.runs += 1
        summary = _summary(out)
        unit.steps += summary["iterations"]
        if rc != 0 or summary["status"] != "converged":
            unit.fail(f"async run seed {cfg['solver']['seed']} exited {rc} "
                      f"with status {summary['status']}")

    def rerun_check(self, work: Path, unit: Unit) -> None:
        """Run the first call of unit 0 again; its outputs must be byte-identical."""
        import mxl.cli

        first, again = work / "unit0_0", work / "rerun"
        mxl.cli.cmd_run(str(work / "unit0_0.cfg"), str(again), quiet=True)
        unit.attempted += 1
        if _digest(first, self.outputs) != _digest(again, self.outputs):
            unit.fail("rerun of unit 0, call 0 gave different trace.csv/summary.json")


WORKLOADS = {w.name: w for w in (MacRate, EeScaled, EeSweep, MacAsync)}
