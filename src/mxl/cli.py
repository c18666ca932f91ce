"""Experiment runner: JSON scenario configs in, traces/reports/plot data out.

Subcommands: `mxl run|verify|sweep <config> --out <dir>`. Exit codes: 0 success,
1 usage/config error, 2 non-convergence, 3 verification failure. A sweep cell
runs its seeds as one `run_batch`, and the cells run in a process pool of at
most one worker per cell, capped by the MXL_WORKERS environment variable.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from itertools import product
from pathlib import Path

import numpy as np

from .families import (
    ChannelSet,
    EeGame,
    MacGame,
    MetricLearningProblem,
    make_cluster_dataset,
    synth_channels,
)
from .games import (
    check_hessian_definiteness,
    check_monotonicity,
    check_variational_stability,
)
from .solver import (
    AsyncSchedule,
    ConfigurationError,
    NoiseModel,
    SolverConfig,
    StepSchedule,
    _fmt,
    run_async,
    run_batch,
)
from .verify import (
    ConvergenceError,
    brute_force_ne,
    check_rate_protocol,
    estimate_strong_stability,
    max_sampled_gradient_norm,
    rate_experiment,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAILED = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Schema: per-section defaults merged strictly (unknown keys rejected)
# ---------------------------------------------------------------------------

_GAME_DEFAULTS = {
    "mac": {"players": 2, "utility": "quadratic", "b": 1.0, "c": 2.0, "a": 1.0},
    "ee": {
        "users": 2,
        "tx_antennas": 2,
        "rx_antennas": 2,
        "subcarriers": 2,
        "pmax": 2.0,
        "pc": 0.1,
        "pathloss_spread": 1.0,
        "channel_seed": 7,
        "fixture": None,
    },
    "metric": {
        "features": 5,
        "points": 40,
        "classes": 2,
        "spread": 0.6,
        "margin": 0.2,
        "trace_cap": None,
        "batch": 16,
        "data_seed": 3,
    },
}

_SOLVER_DEFAULTS = {
    "schedule": asdict(StepSchedule()),
    "noise": asdict(NoiseModel()),
    "max_iters": 5000,
    "stop_residual": 1e-6,
    "seed": 1,
    "log_every": 50,
    "reference": None,
}

_ASYNC_DEFAULTS = {"probabilities": None, "delay_max": 0, "mode": "bernoulli"}

_EXPERIMENT_DEFAULTS = {
    "mode": "run",
    "seeds": 50,
    "samples": 2000,
    "checkpoints": [100, 316, 1000, 3162, 10000],
    "metric": "nuclear_distance",
    "slope_target": -0.5,
    "slope_tol": 0.15,
    "vs_radius": 0.2,
    "grid": None,
    "threshold": 1e-2,
}


def _defaults(kind: str) -> dict:
    """The defaults of every config section when the game is of `kind`."""
    return {"game": _GAME_DEFAULTS[kind], "solver": _SOLVER_DEFAULTS,
            "async": _ASYNC_DEFAULTS, "experiment": _EXPERIMENT_DEFAULTS}


def _check_value(key: str, value, default) -> None:
    """A key whose default is a bool takes true or false, one whose default is a number
    takes an int or a float (an integral one where the default is an int), one whose
    default is a list takes a list of such numbers; a key whose default is null is checked
    where it is read. No number, nor any number in a list, may be NaN or infinite (JSON as
    Python reads it accepts NaN and Infinity)."""
    for k, item in enumerate(value if isinstance(value, list) else [value]):
        where = f"{key}[{k}]" if isinstance(value, list) else key
        if isinstance(item, float) and not math.isfinite(item):
            raise ConfigError(f"{where} must be a finite number, got {json.dumps(item)}")
        if isinstance(default, list) and isinstance(value, list):
            _check_value(where, item, default[0])
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false, got {json.dumps(value)}")
    elif isinstance(default, (int, float)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key} must be a number, got {json.dumps(value)}")
        if isinstance(default, int) and isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{key} must be an integer, got {json.dumps(value)}")
    if isinstance(default, list) and not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {json.dumps(value)}")


def _merge_strict(section: str, raw, defaults: dict) -> dict:
    """The section's defaults updated by `raw`, each value checked and each subsection
    (a default that is itself an object) merged the same way."""
    if not isinstance(raw, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
    out = copy.deepcopy(defaults)
    for key, value in raw.items():
        if isinstance(defaults[key], dict):
            out[key] = _merge_strict(f"{section}.{key}", value, defaults[key])
        else:
            _check_value(f"{section}.{key}", value, defaults[key])
            out[key] = value
    return out


def load_config(path: str | Path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: invalid JSON ({err.msg})") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - {"game", "solver", "async", "experiment"}
    if unknown:
        raise ConfigError(f"{path}: unknown top-level sections {sorted(unknown)}")
    if "game" not in raw:
        raise ConfigError(f"{path}: missing required section 'game'")

    game_raw = raw["game"]
    if not isinstance(game_raw, dict) or "kind" not in game_raw:
        raise ConfigError(f"{path}: game section needs a 'kind'")
    kind = game_raw["kind"]
    if not isinstance(kind, str) or kind not in _GAME_DEFAULTS:
        raise ConfigError(f"{path}: unknown game kind {kind!r} (choose from {sorted(_GAME_DEFAULTS)})")
    defaults = _defaults(kind)
    game = _merge_strict("game", {k: v for k, v in game_raw.items() if k != "kind"},
                         defaults["game"])
    game["kind"] = kind

    resolved = {"game": game}
    for section in ("solver", "async", "experiment"):
        if section in raw or section != "async":  # without an async section, synchronous play
            resolved[section] = _merge_strict(section, raw.get(section, {}), defaults[section])
    return resolved


def build_game(game_cfg: dict):
    kind = game_cfg["kind"]
    if kind == "mac":
        return MacGame(
            n_players=int(game_cfg["players"]),
            utility_kind=game_cfg["utility"],
            b=game_cfg["b"],
            c=game_cfg["c"],
            a=game_cfg["a"],
        )
    if kind == "ee":
        if not isinstance(game_cfg["fixture"], (str, type(None))):
            raise ConfigError("game.fixture must be null or a path")
        if game_cfg["fixture"]:
            channels = ChannelSet.from_json(Path(game_cfg["fixture"]).read_text(encoding="utf-8"))
        else:
            channels = synth_channels(
                int(game_cfg["users"]),
                int(game_cfg["tx_antennas"]),
                int(game_cfg["rx_antennas"]),
                int(game_cfg["subcarriers"]),
                pathloss_spread=game_cfg["pathloss_spread"],
                seed=int(game_cfg["channel_seed"]),
            )
        return EeGame(channels, pmax=game_cfg["pmax"], pc=game_cfg["pc"])
    cap = game_cfg["trace_cap"]
    if cap is not None and (isinstance(cap, bool) or not isinstance(cap, (int, float))):
        raise ConfigError("game.trace_cap must be null or a number")
    points, labels = make_cluster_dataset(
        int(game_cfg["features"]),
        int(game_cfg["points"]),
        n_classes=int(game_cfg["classes"]),
        spread=game_cfg["spread"],
        seed=int(game_cfg["data_seed"]),
    )
    return MetricLearningProblem(
        points,
        labels,
        margin=game_cfg["margin"],
        trace_cap=cap,
        batch_size=int(game_cfg["batch"]),
    )


def build_solver_config(resolved: dict, game) -> SolverConfig:
    """Solver config from the resolved sections, checked before `reference: "oracle"`
    computes its reference point, `brute_force_ne(game, tol=1e-6)`."""
    solver = resolved["solver"]
    config = SolverConfig(
        schedule=StepSchedule(**solver["schedule"]),
        noise=NoiseModel(**solver["noise"]),
        max_iters=int(solver["max_iters"]),
        stop_residual=float(solver["stop_residual"]),
        seed=int(solver["seed"]),
        log_every=int(solver["log_every"]),
    )
    if solver["reference"] == "oracle":
        config.reference_point = brute_force_ne(game, tol=1e-6)
    elif solver["reference"] not in (None, "none"):
        raise ConfigError("solver.reference must be null or 'oracle'")
    return config


def _build_run(resolved: dict):
    """The game, solver config and async schedule of one run, checked before it starts.

    Without an `async` section the schedule is the trivial one (synchronous play).
    """
    game = build_game(resolved["game"])
    config = build_solver_config(resolved, game)
    cfg = resolved.get("async", _ASYNC_DEFAULTS)
    probs = cfg["probabilities"]
    if probs is None:
        probs = [1.0] * game.n_players
    if not isinstance(probs, list) or not all(
            isinstance(p, (int, float)) and not isinstance(p, bool) for p in probs):
        raise ConfigError("async.probabilities must be a list of numbers, one per player")
    schedule = AsyncSchedule(tuple(float(p) for p in probs), delay_max=int(cfg["delay_max"]),
                             mode=cfg["mode"])
    return game, config, schedule.check(game.n_players, config.max_iters)


def _write_plot_data(trace, out_dir: Path) -> None:
    n_players = len(trace.records[0].utilities) if trace.records else 0
    with open(out_dir / "utility_plot.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n," + ",".join(f"utility_{p}" for p in range(1, n_players + 1)) + "\n")
        for rec in trace.records:
            fh.write(f"{rec.n}," + ",".join(_fmt(u) for u in rec.utilities) + "\n")
    with open(out_dir / "residual_plot.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,nash_residual\n")
        for rec in trace.records:
            fh.write(f"{rec.n},{_fmt(rec.nash_residual)}\n")


def _command(name: str, modes: tuple, config_path: str, out_dir: str, seed: int | None,
             body) -> int:
    """Load the config, check experiment.mode against `modes`, apply --seed and return
    `body(resolved, out)`: the body does its work, then makes the output directory, then
    writes. A config, solver, oracle, environment or file error ends in one `error:` line
    and exit 1."""
    wanted = f"== {modes[0]!r}" if len(modes) == 1 else "in {" + ", ".join(map(repr, modes)) + "}"
    try:
        resolved = load_config(config_path)
        if resolved["experiment"]["mode"] not in modes:
            raise ConfigError(f"{name} requires experiment.mode {wanted}")
        if seed is not None:
            resolved["solver"]["seed"] = int(seed)
        return body(resolved, Path(out_dir))
    except (ConfigurationError, ConvergenceError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


def cmd_run(config_path: str, out_dir: str, seed: int | None = None, quiet: bool = False) -> int:
    def body(resolved: dict, out: Path) -> int:
        trace = run_async(*_build_run(resolved))
        out.mkdir(parents=True, exist_ok=True)
        trace.config_echo = resolved
        trace.to_csv(out / "trace.csv")
        trace.write_summary(out / "summary.json")
        _write_plot_data(trace, out)
        if not quiet:
            print(f"status={trace.status} iterations={trace.iterations} "
                  f"terminal_residual={trace.terminal_residual():.3e}")
        if trace.status == "converged":
            return EXIT_OK
        if trace.status == "max_iters":
            return EXIT_NO_CONVERGENCE
        return EXIT_ERROR

    return _command("cmd_run", ("run",), config_path, out_dir, seed, body)


def _verify_stability(game, resolved: dict) -> tuple[dict, bool]:
    exp = resolved["experiment"]
    samples = int(exp["samples"])
    seed = int(resolved["solver"]["seed"])
    mono = check_monotonicity(game, samples, seed=seed)
    hess = check_hessian_definiteness(game, max(samples // 10, 1), seed=seed + 1)
    report = {"monotonicity": mono.to_dict(), "hessian": hess.to_dict()}
    ok = mono.passed() and hess.passed()
    try:
        xstar = brute_force_ne(game, tol=1e-6)
        vs = check_variational_stability(game, xstar, float(exp["vs_radius"]), samples,
                                         seed=seed + 2)
        report["variational_stability"] = vs.to_dict()
        ok = ok and vs.passed()
    except ConvergenceError as err:
        report["variational_stability"] = {"error": str(err)}
        ok = False
    return report, ok


def _verify_rate(game, resolved: dict) -> tuple[dict, bool]:
    exp = resolved["experiment"]
    seeds = int(exp["seeds"])
    checkpoints = check_rate_protocol(seeds, exp["checkpoints"], exp["metric"])  # before any work
    config = build_solver_config(resolved, game)
    xstar = config.reference_point or brute_force_ne(game, tol=1e-6)
    seed = int(resolved["solver"]["seed"])
    stability = estimate_strong_stability(game, xstar, 2000, seed=seed + 10)
    v_hat = max_sampled_gradient_norm(game, config, 500, seed=seed + 11)
    fit = rate_experiment(
        game,
        xstar,
        config,
        seeds=seeds,
        checkpoints=checkpoints,
        metric=exp["metric"],
        b_hat=stability.b_hat,
        v_bound=v_hat,
    )
    target, tol = float(exp["slope_target"]), float(exp["slope_tol"])
    ok = abs(fit.slope - target) <= tol
    report = {
        "rate_fit": fit.to_dict(),
        "strong_stability": stability.to_dict(),
        "gradient_bound": v_hat,
        "slope_target": target,
        "slope_tol": tol,
        "slope_ok": ok,
    }
    return report, ok


def cmd_verify(config_path: str, out_dir: str, seed: int | None = None,
               quiet: bool = False) -> int:
    def body(resolved: dict, out: Path) -> int:
        if "async" in resolved:
            raise ConfigError("mxl verify runs synchronous play only; remove the async section")
        mode = resolved["experiment"]["mode"]
        game = build_game(resolved["game"])
        verify = _verify_stability if mode == "stability" else _verify_rate
        report, ok = verify(game, resolved)
        out.mkdir(parents=True, exist_ok=True)
        report["mode"] = mode
        report["passed"] = ok
        report["config"] = resolved
        with open(out / "report.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if not quiet:
            print(f"verify mode={mode} passed={ok}")
        return EXIT_OK if ok else EXIT_VERIFY_FAILED

    return _command("cmd_verify", ("stability", "rate"), config_path, out_dir, seed, body)


def _set_path(cfg: dict, dotted: str, value) -> None:
    if dotted in ("game.kind", "solver.stop_residual"):
        raise ConfigError(f"sweep grid path {dotted!r} is fixed by the base config's game kind "
                          "or experiment.threshold")
    if dotted.startswith("experiment."):
        raise ConfigError(f"sweep grid path {dotted!r} is fixed: every cell runs the base "
                          "config's experiment section")
    keys = dotted.split(".")
    node = cfg
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise ConfigError(f"sweep grid path {dotted!r} does not exist in the config")
        node = node[k]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ConfigError(f"sweep grid path {dotted!r} does not exist in the config")
    default = _defaults(cfg["game"]["kind"])
    for k in keys:
        default = default.get(k) if isinstance(default, dict) else None
    if isinstance(default, dict):
        raise ConfigError(f"{dotted} is a section, not a value")
    _check_value(dotted, value, default)
    node[keys[-1]] = value


def _sweep_cell(resolved: dict, overrides, threshold: float) -> dict:
    """The resolved config of one sweep cell."""
    cell = copy.deepcopy(resolved)
    for path, value in overrides:
        _set_path(cell, path, value)
    cell["solver"]["stop_residual"] = threshold
    return cell


def _run_sweep_cell(args):
    """One cell's seeds as one `run_batch`: the fraction that converged, their median
    iterations, and under "iterations" the cell's total solver steps."""
    game, config, schedule, seeds = args
    traces = run_batch(game, config, seeds, schedule)
    converged = [t.iterations for t in traces if t.status == "converged"]
    return {"fraction": len(converged) / len(traces),
            "median": float(np.median(converged)) if converged else float("nan"),
            "iterations": sum(t.iterations for t in traces)}


def cmd_sweep(config_path: str, out_dir: str, seed: int | None = None,
              quiet: bool = False) -> int:
    def body(resolved: dict, out: Path) -> int:
        exp = resolved["experiment"]
        grid = exp["grid"]
        if not grid or not isinstance(grid, dict):
            raise ConfigError("sweep needs a non-empty experiment.grid")
        for path, values in grid.items():
            if not isinstance(values, list) or not values:
                raise ConfigError(f"sweep grid values of {path!r} must be a non-empty list, "
                                  f"got {json.dumps(values)}")
        n_seeds = int(exp["seeds"])
        if n_seeds < 1:
            raise ConfigError(f"experiment.seeds must be at least 1, got {json.dumps(exp['seeds'])}")
        threshold = float(exp["threshold"])
        asked = os.environ.get("MXL_WORKERS", "0")  # 0 is min(4, CPU count)
        if not asked.isdecimal():
            raise ConfigError(f"MXL_WORKERS must be an integer >= 0, got {asked!r}")
        paths = sorted(grid)
        cells = list(product(*[[(p, v) for v in grid[p]] for p in paths]))
        # fail fast: build every cell's run, oracle included, before any cell runs
        tasks = []
        for k, overrides in enumerate(cells):
            game, config, schedule = _build_run(_sweep_cell(resolved, overrides, threshold))
            first = config.seed + 1000 * k  # the cell's own solver.seed: a swept seed counts
            tasks.append((game, config, schedule, range(first, first + n_seeds)))
        workers = min(int(asked) or min(4, os.cpu_count() or 1), len(tasks))
        if workers > 1:
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(_run_sweep_cell, tasks))
            except BrokenProcessPool as err:
                print(f"error: sweep worker crashed ({err})", file=sys.stderr)
                return EXIT_ERROR
        else:
            results = [_run_sweep_cell(t) for t in tasks]
        rows = [(overrides, r["fraction"], r["median"]) for overrides, r in zip(cells, results)]

        out.mkdir(parents=True, exist_ok=True)
        with open(out / "sweep.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(paths) + ",seeds,converged_fraction,median_iterations\n")
            for overrides, frac, med in rows:
                cell_values = ",".join(_fmt(float(v)) if isinstance(v, (int, float)) else str(v)
                                       for _, v in overrides)
                fh.write(f"{cell_values},{n_seeds},{_fmt(frac)},{_fmt(med)}\n")
        if not quiet:
            for overrides, frac, med in rows:
                label = " ".join(f"{p}={v}" for p, v in overrides)
                print(f"{label}: converged {frac:.0%}, median iters {med:g}")
        return EXIT_OK

    return _command("cmd_sweep", ("sweep",), config_path, out_dir, seed, body)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mxl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "verify": cmd_verify, "sweep": cmd_sweep}[args.command]
    return handler(args.config, args.out, seed=args.seed, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
