"""Experiment runner: JSON scenario configs in, traces/reports/plot data out.

Subcommands: `mxl run|verify|sweep <config> --out <dir>`. Exit codes: 0 success,
1 usage/config error, 2 non-convergence, 3 verification failure. Sweep cells
run in a process pool capped by the MXL_WORKERS environment variable.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
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
)
from .verify import (
    ConvergenceError,
    brute_force_ne,
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


def _merge_strict(section: str, raw: dict, defaults: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
    out = copy.deepcopy(defaults)
    out.update(raw)
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
    if kind not in _GAME_DEFAULTS:
        raise ConfigError(f"{path}: unknown game kind {kind!r} (choose from {sorted(_GAME_DEFAULTS)})")
    game = _merge_strict("game", {k: v for k, v in game_raw.items() if k != "kind"},
                         _GAME_DEFAULTS[kind])
    game["kind"] = kind

    solver_raw = dict(raw.get("solver", {}))
    sched_raw = solver_raw.pop("schedule", {})
    noise_raw = solver_raw.pop("noise", {})
    solver = _merge_strict("solver", solver_raw,
                           {k: v for k, v in _SOLVER_DEFAULTS.items() if k not in ("schedule", "noise")})
    solver["schedule"] = _merge_strict("solver.schedule", sched_raw, _SOLVER_DEFAULTS["schedule"])
    solver["noise"] = _merge_strict("solver.noise", noise_raw, _SOLVER_DEFAULTS["noise"])

    resolved = {"game": game, "solver": solver}
    if "async" in raw:
        resolved["async"] = _merge_strict("async", raw["async"], _ASYNC_DEFAULTS)
    resolved["experiment"] = _merge_strict("experiment", raw.get("experiment", {}),
                                           _EXPERIMENT_DEFAULTS)
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
        trace_cap=game_cfg["trace_cap"],
        batch_size=int(game_cfg["batch"]),
    )


def build_solver_config(resolved: dict, game, seed_override: int | None = None,
                        oracle=None) -> SolverConfig:
    """Solver config from the resolved sections; `oracle`, when given, is the
    already computed `brute_force_ne(game, tol=1e-6)` for `reference: "oracle"`."""
    solver = resolved["solver"]
    seed = int(solver["seed"] if seed_override is None else seed_override)
    reference = None
    if solver["reference"] == "oracle":
        reference = oracle if oracle is not None else brute_force_ne(game, tol=1e-6)
    elif solver["reference"] not in (None, "none"):
        raise ConfigError("solver.reference must be null or 'oracle'")
    return SolverConfig(
        schedule=StepSchedule(**solver["schedule"]),
        noise=NoiseModel(**solver["noise"]),
        max_iters=int(solver["max_iters"]),
        stop_residual=float(solver["stop_residual"]),
        seed=seed,
        log_every=int(solver["log_every"]),
        reference_point=reference,
    )


def _build_run(resolved: dict, seed: int | None = None, oracle=None):
    """The game, solver config and async schedule of one run, checked before it starts.

    Without an `async` section the schedule is the trivial one (synchronous play).
    """
    game = build_game(resolved["game"])
    config = build_solver_config(resolved, game, seed_override=seed, oracle=oracle)
    cfg = resolved.get("async", _ASYNC_DEFAULTS)
    probs = cfg["probabilities"]
    if probs is None:
        probs = [1.0] * game.n_players
    if not isinstance(probs, list) or not all(isinstance(p, (int, float)) for p in probs):
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


def cmd_run(config_path: str, out_dir: str, seed: int | None = None, quiet: bool = False) -> int:
    try:
        resolved = load_config(config_path)
        if resolved["experiment"]["mode"] != "run":
            raise ConfigError("cmd_run requires experiment.mode == 'run'")
        trace = run_async(*_build_run(resolved, seed))
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, ConfigurationError, ConvergenceError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR

    if seed is not None:
        resolved = copy.deepcopy(resolved)
        resolved["solver"]["seed"] = int(seed)
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
    xstar = brute_force_ne(game, tol=1e-6)
    seed = int(resolved["solver"]["seed"])
    stability = estimate_strong_stability(game, xstar, 2000, seed=seed + 10)
    config = build_solver_config(resolved, game, oracle=xstar)
    v_hat = max_sampled_gradient_norm(game, config, 500, seed=seed + 11)
    fit = rate_experiment(
        game,
        xstar,
        config,
        seeds=int(exp["seeds"]),
        checkpoints=[int(c) for c in exp["checkpoints"]],
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
    try:
        resolved = load_config(config_path)
        mode = resolved["experiment"]["mode"]
        if mode not in ("stability", "rate"):
            raise ConfigError("cmd_verify requires experiment.mode in {'stability', 'rate'}")
        if "async" in resolved:
            raise ConfigError("mxl verify runs synchronous play only; remove the async section")
        if seed is not None:
            resolved["solver"]["seed"] = int(seed)
        game = build_game(resolved["game"])
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, ConfigurationError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR

    try:
        if mode == "stability":
            report, ok = _verify_stability(game, resolved)
        else:
            report, ok = _verify_rate(game, resolved)
    except (ConvergenceError, ConfigurationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    report["mode"] = mode
    report["passed"] = ok
    report["config"] = resolved
    with open(out / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not quiet:
        print(f"verify mode={mode} passed={ok}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _set_path(cfg: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = cfg
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise ConfigError(f"sweep grid path {dotted!r} does not exist in the config")
        node = node[k]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ConfigError(f"sweep grid path {dotted!r} does not exist in the config")
    node[keys[-1]] = value


def _sweep_cell(resolved: dict, overrides, threshold: float) -> dict:
    """The resolved config of one sweep cell."""
    cell = copy.deepcopy(resolved)
    for path, value in overrides:
        _set_path(cell, path, value)
    cell["solver"]["stop_residual"] = threshold
    return cell


def _run_sweep_cell(args):
    resolved, overrides, seed, threshold, oracle = args
    trace = run_async(*_build_run(_sweep_cell(resolved, overrides, threshold), seed, oracle))
    return {
        "converged": trace.status == "converged",
        "iterations": trace.iterations,
        "terminal_residual": trace.terminal_residual(),
    }


def cmd_sweep(config_path: str, out_dir: str, seed: int | None = None,
              quiet: bool = False) -> int:
    try:
        resolved = load_config(config_path)
        exp = resolved["experiment"]
        if exp["mode"] != "sweep":
            raise ConfigError("cmd_sweep requires experiment.mode == 'sweep'")
        grid = exp["grid"]
        if not grid or not isinstance(grid, dict) or any(not v for v in grid.values()):
            raise ConfigError("sweep needs a non-empty experiment.grid")
        if seed is not None:
            resolved["solver"]["seed"] = int(seed)
        base_seed = int(resolved["solver"]["seed"])
        n_seeds = int(exp["seeds"])
        threshold = float(exp["threshold"])
        paths = sorted(grid)
        cells = list(product(*[[(p, v) for v in grid[p]] for p in paths]))
        # fail fast: build every cell's run before any cell runs, keeping each
        # cell's oracle reference point (None without one) for its seeds
        oracles = [_build_run(_sweep_cell(resolved, overrides, threshold))[1].reference_point
                   for overrides in cells]
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, ConfigurationError, ConvergenceError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR

    tasks = []
    for cell_idx, overrides in enumerate(cells):
        for s in range(n_seeds):
            tasks.append((resolved, list(overrides), base_seed + 1000 * cell_idx + s, threshold,
                          oracles[cell_idx]))

    workers = int(os.environ.get("MXL_WORKERS", "0")) or min(4, os.cpu_count() or 1)
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_sweep_cell, tasks))
    else:
        results = [_run_sweep_cell(t) for t in tasks]

    rows = []
    for cell_idx, overrides in enumerate(cells):
        chunk = results[cell_idx * n_seeds : (cell_idx + 1) * n_seeds]
        converged = [r for r in chunk if r["converged"]]
        frac = len(converged) / n_seeds
        med = float(np.median([r["iterations"] for r in converged])) if converged else float("nan")
        rows.append((overrides, frac, med))

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
