"""Independent oracles and statistical estimators for desk-scale convergence checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import GameModel, Report, nash_residual, sample_batches
from .solver import (
    SeedNoise,
    SolverConfig,
    advance,
    gaussian_blocks,
    initial_state,
    inject_noise,
    profile_kl,
)
from .spectral import dual_norm, hermitize, nuclear_norm, trace_inner


class ConvergenceError(RuntimeError):
    """Best-response iteration cycled or stalled above tolerance."""


def _best_response_grid(game: GameModel, i: int, actions, levels: int = 65,
                        bisections: int = 60):
    """Scalar best response: coarse utility grid, then bisection on the own-gradient sign.

    Pure grid search can only localise a flat concave peak to about sqrt(eps);
    the gradient sign pins it to machine precision.
    """
    bound = game.players[i].domain.trace_bound
    work = list(actions)

    def slope(v: float) -> float:
        work[i] = np.array([[v]], dtype=complex)
        return float(game.payoff_gradient(i, tuple(work))[0, 0].real)

    if slope(0.0) <= 0.0:
        return np.array([[0.0]], dtype=complex)
    if slope(bound) >= 0.0:
        return np.array([[bound]], dtype=complex)
    grid = np.linspace(0.0, bound, levels)
    stacks = [np.broadcast_to(a, (levels, 1, 1)) for a in work]
    stacks[i] = grid.astype(complex)[:, None, None]
    k = int(np.argmax(game.utility_stack(i, stacks)))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, levels - 1)]
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return np.array([[0.5 * (lo + hi)]], dtype=complex)


def _best_response_pg(game: GameModel, i: int, actions, max_iters: int = 600,
                      tol: float = 1e-11):
    """Projected gradient ascent on player i's own concave objective.

    Uses spectral (Barzilai-Borwein) step lengths with a halving fallback
    whenever a step would decrease the objective. Each candidate's value and
    gradient come from one `evaluate_stacks` call on a stack of one.
    """
    domain = game.players[i].domain
    work = [np.asarray(a)[None] for a in actions]

    def evaluate(x):
        work[i] = x[None]
        gradients, utilities = game.evaluate_stacks(work, (i,))
        return float(utilities[0][0]), gradients[0][0]

    x = np.array(actions[i], dtype=complex)
    value, grad = evaluate(x)
    step = 1.0
    for _ in range(max_iters):
        for _ in range(50):
            cand = domain.project(x + step * grad)
            cand_value, cand_grad = evaluate(cand)
            if cand_value >= value - 1e-14:
                break
            step *= 0.5
        else:
            break
        dx = cand - x
        dg = cand_grad - grad
        shift = float(np.linalg.norm(dx))
        x, value, grad = cand, cand_value, cand_grad
        denom = abs(float(np.vdot(dx, dg).real))
        if denom > 1e-300:
            step = min(max(float(np.vdot(dx, dx).real) / denom, 1e-8), 1e8)
        else:
            step *= 1.6
        if shift < tol:
            break
    return x


def brute_force_ne(game: GameModel, tol: float = 1e-8, max_sweeps: int = 400):
    """Cyclic best-response fixed point, usable as an equilibrium oracle.

    Scalar games use grid best responses; matrix games use per-player projected
    gradient ascent. Raises ConvergenceError when sweeps stop improving while
    the residual is still above tolerance (cycling is reported, not accepted).
    """
    scalar = all(p.domain.dim == 1 for p in game.players)
    actions = list(game.center_profile())
    best_residual = float("inf")
    stall = 0
    for _ in range(max_sweeps):
        for i in range(game.n_players):
            if scalar:
                actions[i] = _best_response_grid(game, i, tuple(actions))
            else:
                actions[i] = _best_response_pg(game, i, tuple(actions))
        residual = nash_residual(game, tuple(actions))
        if residual <= tol:
            return tuple(actions)
        if residual >= best_residual - 1e-12:
            stall += 1
            if stall >= 8:
                raise ConvergenceError(
                    f"best-response iteration cycled at residual {residual:.3e} > tol {tol:.1e}"
                )
        else:
            stall = 0
            best_residual = residual
    raise ConvergenceError(
        f"best-response iteration did not reach tol {tol:.1e} in {max_sweeps} sweeps "
        f"(best residual {best_residual:.3e})"
    )


@dataclass
class StrongStabilityEstimate(Report):
    """Sampled lower margin of the stability inequality relative to divergence."""

    b_hat: float
    samples: int
    violation_count: int
    rng_seed: int


def estimate_strong_stability(game: GameModel, xstar, samples: int,
                              seed: int = 0) -> StrongStabilityEstimate:
    """Estimate B as the sampled minimum of -tr[(X-X*)V(X)] / D(X*, X), clipped at 0."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    game.require_feasible(xstar)
    rng = np.random.default_rng(seed)
    b_hat = float("inf")
    violations = 0
    everyone = range(game.n_players)
    for (x,) in sample_batches(game, rng, samples, "x"):
        div = profile_kl(game, xstar, x)
        kept = (div > 1e-9) & np.isfinite(div)
        if not kept.any():
            continue
        x = [a[kept] for a in x]
        v = game.gradient_stacks(x, everyone)
        drift = sum(trace_inner(x[i] - xstar[i], v[i]) for i in everyone)
        ratio = -drift / div[kept]
        violations += int(np.count_nonzero(ratio < 0))
        # as a per-sample min: the first of equal values, and never a NaN
        b_hat = min([b_hat, *ratio.tolist()])
    if not np.isfinite(b_hat):
        b_hat = 0.0
    return StrongStabilityEstimate(float(max(b_hat, 0.0)), samples, violations, seed)


@dataclass
class RateFit(Report):
    """Log-log fit of an averaged error metric against the iteration count; `gamma_b_flag`
    (gamma*B <= 1, no `bound`) is set whenever `gamma_b` is."""

    checkpoints: tuple
    values: tuple
    slope: float
    slope_stderr: float
    stderrs: tuple
    metric: str
    seeds: int
    bound: tuple | None = None
    gamma_b: float | None = None
    gamma_b_flag: bool | None = None


def _profile_metric(game: GameModel, xstar, actions, metric: str) -> float:
    """The metric ("kl", else "nuclear_distance") of a profile, or of each profile of
    per-player (S, d, d) stacks."""
    if metric == "kl":
        return profile_kl(game, xstar, actions)
    return sum(nuclear_norm(np.asarray(a) - np.asarray(b)) for a, b in zip(actions, xstar))


def _fit_table(table: np.ndarray, checkpoints):
    """Seed means and standard errors per checkpoint, and their log-log slope with its stderr."""
    means = table.mean(axis=0)
    stderrs = table.std(axis=0, ddof=1) / np.sqrt(table.shape[0])
    logs_n = np.log(np.asarray(checkpoints, dtype=float))
    logs_v = np.log(np.maximum(means, 1e-300))
    design = np.vstack([np.ones_like(logs_n), logs_n]).T
    coef, *_ = np.linalg.lstsq(design, logs_v, rcond=None)
    fitted = design @ coef
    dof = max(1, len(checkpoints) - 2)
    resid_var = float(np.sum((logs_v - fitted) ** 2)) / dof
    cov = resid_var * np.linalg.inv(design.T @ design)
    return means, stderrs, float(coef[1]), float(np.sqrt(max(cov[1, 1], 0.0)))


def check_rate_protocol(seeds: int, checkpoints, metric: str) -> tuple:
    """The checkpoints as ints, once there are >= 2 seeds and >= 4 strictly increasing
    checkpoints from 1 up, spanning at least two decades, and the metric is known."""
    if metric not in ("kl", "nuclear_distance"):
        raise ValueError(f"unknown metric {metric!r}")
    checkpoints = tuple(int(c) for c in checkpoints)
    if (len(checkpoints) < 4 or checkpoints[0] < 1
            or any(a >= b for a, b in zip(checkpoints, checkpoints[1:]))):
        raise ValueError("need >= 4 strictly increasing checkpoints, all >= 1")
    if checkpoints[-1] < 100 * checkpoints[0]:
        raise ValueError("checkpoints must span at least two decades")
    if seeds < 2:
        raise ValueError("need >= 2 seeds")
    return checkpoints


def rate_experiment(game: GameModel, xstar, config_template: SolverConfig, seeds: int,
                    checkpoints, metric: str = "nuclear_distance",
                    b_hat: float | None = None, v_bound: float | None = None) -> RateFit:
    """Average `metric` over independent trajectories at the checkpoints and fit a slope.

    All trajectories advance together through the solver's engine as one stack
    on the synchronous schedule, trajectory s on its own Generator spawned from
    the config seed, so every value equals that of a per-seed loop of the same
    update.

    With b_hat and v_bound supplied and a gamma/n step sequence, the explicit
    divergence bound gamma^2 V^2 / ((B gamma - 1) n) is evaluated pointwise;
    gamma*B <= 1 is flagged rather than silently accepted.
    """
    checkpoints = check_rate_protocol(seeds, checkpoints, metric)
    game.require_feasible(xstar)

    table = np.zeros((seeds, len(checkpoints)))
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(config_template.seed).spawn(seeds)]
    state = initial_state(game, config_template.y0, seeds)
    noise = SeedNoise(game, config_template.noise, rngs, checkpoints[-1])
    marks = {c: idx for idx, c in enumerate(checkpoints)}
    for n, _ in advance(game, state, config_template.schedule, noise, checkpoints[-1]):
        if n in marks:
            table[:, marks[n]] = _profile_metric(game, xstar, state.actions, metric)

    means, stderrs, slope, slope_stderr = _fit_table(table, checkpoints)

    bound = gamma_b = flag = None
    if b_hat is not None and v_bound is not None:
        gamma = config_template.schedule.at(1)
        gamma_b = float(gamma * b_hat)
        flag = bool(gamma_b <= 1.0)
        if not flag:
            bound = tuple(
                gamma * gamma * v_bound * v_bound / ((b_hat * gamma - 1.0) * n)
                for n in checkpoints
            )
    return RateFit(
        checkpoints=checkpoints,
        values=tuple(float(v) for v in means),
        slope=slope,
        slope_stderr=slope_stderr,
        stderrs=tuple(float(v) for v in stderrs),
        metric=metric,
        seeds=seeds,
        bound=bound,
        gamma_b=gamma_b,
        gamma_b_flag=flag,
    )


def max_sampled_gradient_norm(game: GameModel, config: SolverConfig, probes: int,
                              seed: int = 0) -> float:
    """Empirical gradient bound: max dual norm of noisy estimates over sampled profiles.

    Each estimate is the game's own oracle `stochastic_gradient` (a minibatch draw,
    say) plus the injected noise, both drawn from the probe's generator. When the
    oracle draws nothing and the noise is none, gaussian or relative, a probe draws a
    profile and then per player the normals `inject_noise` draws, so the probes come
    in batches (`sample_batches`), each with one `gradient_stacks` and per player one
    noise stack and one stacked dual norm, every value as the per-probe loop gives it.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    noise = config.noise
    rng = np.random.default_rng(seed)
    worst = 0.0
    drawing = type(game).stochastic_gradient is not GameModel.stochastic_gradient
    if drawing or noise.kind == "pareto":  # their draws interleave with the probe's: one by one
        for _ in range(probes):
            x = game.sample_profile(rng)
            for i in range(game.n_players):
                v = game.stochastic_gradient(i, x, rng)
                vhat = hermitize(inject_noise(v, noise, rng, game.players[i].domain))
                worst = max(worst, dual_norm(vhat))
        return worst
    everyone = range(game.n_players)
    for x, *normals in sample_batches(game, rng, probes, "x" if noise.kind == "none" else "xn"):
        gradients = game.gradient_stacks(x, everyone)
        for i, spec in enumerate(game.players):
            v = gradients[i]
            if normals:
                v = v + spec.domain.block_diagonal(gaussian_blocks(v, noise, normals[0][i]))
            # as a per-probe max: the first of equal values, and never a NaN
            worst = max([worst, *dual_norm(hermitize(v)).tolist()])
    return worst
