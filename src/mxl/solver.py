"""Dual-score learning loop: gradient tracking, exponential projection, noise, traces.

Each iteration adds a (possibly noisy) payoff gradient to a per-player score
matrix and maps scores back to the feasible set through the stable exponential
projection. There is one per-trajectory loop, `run_async`, for gradients that
may be imperfect or obsolete; synchronous play (`run`) is its trivial schedule,
where every player updates every epoch without delay. `mxl_step_stack` advances
a stack of independent trajectories at once for the rate experiments. A single
run is inherently sequential; concurrency across runs is achieved with
independent RNG streams spawned from the master seed
(SeedSequence(seed).spawn -> [noise stream, scheduling stream]).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .games import GameModel, nash_residual
from .spectral import (
    OFF_BLOCK_TOL,
    DomainError,
    exp_projection,
    hermitize,
    mirror_map,
    quantum_kl,
    random_hermitian,
)

# Stacked runs draw each seed's standard normals for up to CHUNK_STEPS steps at
# once, capped so one chunk of all seeds holds at most CHUNK_FLOATS floats
# (256 KiB); the chunk buffer is the only memory that grows with the seed count.
CHUNK_STEPS = 1000
CHUNK_FLOATS = 1 << 15


class SolverError(RuntimeError):
    pass


class ConfigurationError(SolverError):
    pass


class NonFiniteGradientError(SolverError):
    def __init__(self, player: int, iteration: int):
        super().__init__(
            f"non-finite gradient for player {player + 1} at iteration {iteration}"
        )
        self.player = player
        self.iteration = iteration


@dataclass(frozen=True)
class StepSchedule:
    """Nonincreasing positive step sequence gamma_n, n = 1, 2, ...

    kinds: power_law gamma0/n^a with a in (0, 1]; optimized 2/(B n); constant.
    """

    kind: str
    gamma0: float = 1.0
    exponent: float = 1.0
    stability: float = 1.0

    def __post_init__(self):
        if self.kind not in ("power_law", "optimized", "constant"):
            raise ConfigurationError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "power_law" and not (0.0 < self.exponent <= 1.0):
            raise ConfigurationError("power_law exponent must lie in (0, 1]")
        if self.kind in ("power_law", "constant") and not (self.gamma0 > 0):
            raise ConfigurationError("gamma0 must be positive")
        if self.kind == "optimized" and not (self.stability > 0):
            raise ConfigurationError("optimized schedule needs a positive stability constant")

    @classmethod
    def power_law(cls, gamma0: float = 1.0, exponent: float = 0.5) -> "StepSchedule":
        return cls("power_law", gamma0=gamma0, exponent=exponent)

    @classmethod
    def optimized(cls, stability: float) -> "StepSchedule":
        return cls("optimized", stability=stability)

    @classmethod
    def constant(cls, gamma0: float) -> "StepSchedule":
        return cls("constant", gamma0=gamma0)

    def at(self, n: int) -> float:
        if n < 1:
            raise ValueError("step index starts at 1")
        if self.kind == "power_law":
            return self.gamma0 / float(n) ** self.exponent
        if self.kind == "optimized":
            return 2.0 / (self.stability * n)
        return self.gamma0


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean gradient perturbation.

    gaussian_hermitian(sigma) draws a Gaussian Hermitian matrix with
    E||Z||_F^2 = sigma^2 * dim (hence E||Z||_*^2 <= sigma^2 * dim).
    relative(level) recalibrates sigma each call so the Frobenius magnitude of
    the perturbation is `level` times that of the current true gradient.
    pareto_tail(tail_index, scale) multiplies a unit Hermitian direction by a
    heavy-tailed magnitude; for tail_index < 2 its variance is infinite, which
    deliberately breaks the subexponential-moment assumption (negative testing).
    With hermitian=False the raw complex (non-Hermitian) perturbation is
    emitted so the solver's hermitize correction is exercised.
    """

    kind: str = "none"
    sigma: float = 0.0
    level: float = 0.0
    tail_index: float = 1.5
    scale: float = 1.0
    hermitian: bool = True

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "relative", "pareto"):
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian" and self.sigma < 0:
            raise ConfigurationError("sigma must be nonnegative")
        if self.kind == "relative" and self.level < 0:
            raise ConfigurationError("relative level must be nonnegative")
        if self.kind == "pareto" and not (self.tail_index > 1.0 and self.scale > 0):
            raise ConfigurationError("pareto tail needs tail_index > 1 and positive scale")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls("none")

    @classmethod
    def gaussian_hermitian(cls, sigma: float, hermitian: bool = True) -> "NoiseModel":
        return cls("gaussian", sigma=sigma, hermitian=hermitian)

    @classmethod
    def relative(cls, level: float, hermitian: bool = True) -> "NoiseModel":
        return cls("relative", level=level, hermitian=hermitian)

    @classmethod
    def pareto_tail(cls, tail_index: float, scale: float = 1.0) -> "NoiseModel":
        return cls("pareto", tail_index=tail_index, scale=scale)


def relative_sigma(v: np.ndarray, level: float) -> float:
    """Sigma giving a Gaussian Hermitian draw Frobenius magnitude level*||V||_F."""
    dim = v.shape[0]
    return level * float(np.linalg.norm(v)) / np.sqrt(dim)


def _raw_complex(dim: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    s = sigma / np.sqrt(2.0 * dim)
    return s * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def _blockwise(dim: int, blocks, draw) -> np.ndarray:
    if blocks is None:
        return draw(dim)
    out = np.zeros((dim, dim), dtype=complex)
    pos = 0
    for b in blocks:
        out[pos : pos + b, pos : pos + b] = draw(b)
        pos += b
    return out


def inject_noise(v: np.ndarray, model: NoiseModel, rng: np.random.Generator,
                 blocks=None) -> np.ndarray:
    """Return the perturbed gradient estimate V + Z for the given noise model.

    `blocks` restricts the perturbation to the player's block-diagonal score
    space (feedback is per block), keeping the exponential projection feasible.
    """
    if model.kind == "none":
        return v
    dim = v.shape[0]
    if model.kind in ("gaussian", "relative"):
        sigma = model.sigma if model.kind == "gaussian" else relative_sigma(v, model.level)
        if model.hermitian:
            return v + _blockwise(dim, blocks, lambda b: random_hermitian(b, rng, scale=sigma))
        return v + _blockwise(dim, blocks, lambda b: _raw_complex(b, sigma, rng))
    # pareto: heavy-tailed magnitude on a unit-Frobenius Hermitian direction
    direction = _blockwise(dim, blocks, lambda b: random_hermitian(b, rng))
    direction /= max(float(np.linalg.norm(direction)), 1e-300)
    magnitude = model.scale * rng.pareto(model.tail_index)
    return v + magnitude * direction


@dataclass(frozen=True)
class AsyncSchedule:
    """Per-player update clocks and bounded feedback delays.

    mode "bernoulli": each player updates independently with probability p_i per
    epoch; "single": exactly one player per epoch, chosen with probability
    proportional to p_i. Delays are uniform over {0..delay_max}.
    """

    probabilities: tuple[float, ...]
    delay_max: int = 0
    mode: str = "bernoulli"

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if any(not (0.0 < p <= 1.0) for p in probs):
            raise ConfigurationError("update probabilities must lie in (0, 1]")
        if self.delay_max < 0:
            raise ConfigurationError("delay_max must be >= 0")
        if self.mode not in ("bernoulli", "single"):
            raise ConfigurationError(f"unknown async mode {self.mode!r}")


@dataclass
class SolverConfig:
    schedule: StepSchedule
    noise: NoiseModel = field(default_factory=NoiseModel.none)
    max_iters: int = 1000
    stop_residual: float = 0.0
    seed: int = 0
    log_every: int = 100
    reference_point: tuple | None = None
    y0: tuple | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")
        if self.stop_residual < 0:
            raise ConfigurationError("stop_residual must be >= 0")
        if self.log_every < 1:
            raise ConfigurationError("log_every must be >= 1")


@dataclass
class SolverState:
    """Scores, their projected actions, and the index of the next step (1-based)."""

    scores: list
    actions: list
    n: int = 1


@dataclass
class TraceRecord:
    n: int
    step_size: float
    utilities: tuple
    nash_residual: float
    kl_to_reference: float | None


@dataclass
class RunTrace:
    records: list
    status: str
    iterations: int
    seed: int
    final_actions: tuple
    updates_per_player: tuple
    diagnostic: str | None = None
    config_echo: dict | None = None

    def terminal_residual(self) -> float:
        return self.records[-1].nash_residual if self.records else float("nan")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("n,player,utility,nash_residual,kl_to_ref,step_size\n")
            for rec in self.records:
                kl = "" if rec.kl_to_reference is None else _fmt(rec.kl_to_reference)
                for pid, u in enumerate(rec.utilities, start=1):
                    fh.write(
                        f"{rec.n},{pid},{_fmt(u)},{_fmt(rec.nash_residual)},{kl},{_fmt(rec.step_size)}\n"
                    )

    def summary(self) -> dict:
        out = {
            "status": self.status,
            "iterations": self.iterations,
            "seed": self.seed,
            "terminal_residual": self.terminal_residual(),
            "logged_records": len(self.records),
            "updates_per_player": list(self.updates_per_player),
        }
        if self.diagnostic is not None:
            out["diagnostic"] = self.diagnostic
        if self.config_echo is not None:
            out["config"] = self.config_echo
        return out

    def write_summary(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def initial_state(game: GameModel, y0=None) -> SolverState:
    if y0 is None:
        scores = [np.zeros((p.domain.dim, p.domain.dim), dtype=complex) for p in game.players]
    else:
        if len(y0) != game.n_players:
            raise ConfigurationError("y0 must provide one score matrix per player")
        scores = [hermitize(np.asarray(y, dtype=complex)) for y in y0]
    actions = [mirror_map(y, p.domain) for y, p in zip(scores, game.players)]
    return SolverState(scores=scores, actions=actions, n=1)


class SeedNoise:
    """Gradient noise for a stack of trajectories, each drawn from its own Generator.

    When every step draws the same number of standard normals (noise `gaussian`
    or `relative`, and a game that keeps the default `stochastic_gradient`, so
    the gradient draws nothing), each seed's normals are drawn up to
    CHUNK_STEPS steps at a time. A Generator yields the same stream however its
    draws are grouped, so every perturbation equals the one `inject_noise`
    would draw, bit for bit. Otherwise `inject_noise` runs seed by seed, after
    each player's gradient, in the order of `run`.
    """

    def __init__(self, game: GameModel, model: NoiseModel, rngs, steps: int):
        self.game, self.model, self.rngs = game, model, list(rngs)
        self.chunked = (model.kind in ("gaussian", "relative")
                        and type(game).stochastic_gradient is GameModel.stochastic_gradient)
        self.layouts = [p.domain.blocks or (p.domain.dim,) for p in game.players]
        self.offsets = [0, *accumulate(sum(2 * b * b for b in bs) for bs in self.layouts)]
        width = self.offsets[-1]
        chunk = max(1, min(CHUNK_STEPS, steps, CHUNK_FLOATS // max(len(self.rngs) * width, 1)))
        self.buffer = np.empty((len(self.rngs), chunk if self.chunked else 0, width))
        self.draws = self.buffer[:, :0]
        self.remaining = steps
        self.row = 0

    def next_step(self) -> None:
        """Move to the next step's draws, drawing a new chunk when one is used up."""
        if not self.chunked:
            return
        self.row += 1
        if self.row >= self.draws.shape[1]:
            steps = min(self.buffer.shape[1], max(self.remaining, 1))
            self.remaining -= steps
            self.draws = self.buffer[:, :steps]
            for rng, out in zip(self.rngs, self.draws):
                rng.standard_normal(out=out)
            self.row = 0

    def perturb(self, i: int, v: np.ndarray) -> np.ndarray:
        """Hermitian part of V + Z for player i's gradient stack V, one Z per seed."""
        model = self.model
        if model.kind == "none":
            return hermitize(v)
        blocks = self.game.players[i].domain.blocks
        if not self.chunked:
            return hermitize(np.stack([
                inject_noise(vs, model, rng, blocks=blocks) for vs, rng in zip(v, self.rngs)
            ]))
        dim = v.shape[-1]
        sigma = model.sigma
        if model.kind == "relative":
            if dim == 1:  # what np.linalg.norm computes for one entry, bit for bit
                g = v[:, 0, 0]
                norms = np.sqrt(g.real * g.real + g.imag * g.imag)
            else:
                norms = np.array([np.linalg.norm(vs) for vs in v])
            sigma = (model.level * norms / np.sqrt(dim))[:, None, None]
        draws = self.draws[:, self.row, self.offsets[i]:self.offsets[i + 1]]
        z = np.zeros_like(v) if blocks is not None else None
        pos = start = 0
        for b in self.layouts[i]:
            re = draws[:, pos : pos + b * b].reshape(-1, b, b)
            im = draws[:, pos + b * b : pos + 2 * b * b].reshape(-1, b, b)
            pos += 2 * b * b
            if model.hermitian:
                a = re + 1j * im
                zb = (a + a.conj().swapaxes(-1, -2)) * (sigma / (2.0 * np.sqrt(b)))
            else:
                zb = (sigma / np.sqrt(2.0 * b)) * (re + 1j * im)
            if z is None:
                z = zb
            else:
                z[:, start : start + b, start : start + b] = zb
            start += b
        return hermitize(v + z)


def initial_stack(game: GameModel, y0, seeds: int) -> SolverState:
    """`initial_state` repeated along a leading axis of `seeds` trajectories."""
    state = initial_state(game, y0)
    return SolverState([np.repeat(y[None], seeds, axis=0) for y in state.scores],
                       [np.repeat(x[None], seeds, axis=0) for x in state.actions])


def mxl_step_stack(game: GameModel, state: SolverState, schedule: StepSchedule,
                   noise: SeedNoise) -> SolverState:
    """One synchronous update of every trajectory of a stacked state at once.

    Scores and actions are (seeds, d, d) stacks per player; trajectory s uses
    only `noise.rngs[s]`, so it equals a sequential run on that Generator.
    A non-finite gradient raises at the earliest step any trajectory reaches it.
    """
    gamma = schedule.at(state.n)
    noise.next_step()
    new_scores = []
    for i in range(game.n_players):
        v = game.gradient_stack(i, state.actions, noise.rngs)
        if not np.all(np.isfinite(v)):
            raise NonFiniteGradientError(i, state.n)
        new_scores.append(state.scores[i] + gamma * noise.perturb(i, v))
    new_actions = [exp_projection(_check_scores(y, p.domain), p.domain)
                   for y, p in zip(new_scores, game.players)]
    return SolverState(new_scores, new_actions, state.n + 1)


def _check_scores(y: np.ndarray, domain) -> np.ndarray:
    """The shape and block checks of `mirror_map`, for a stack of scores."""
    if y.shape[1:] != (domain.dim, domain.dim):
        raise DomainError(f"score shape {y.shape[1:]} does not match domain dim {domain.dim}")
    if domain.blocks is not None:
        off = np.ones((domain.dim, domain.dim), dtype=bool)
        for sl in domain.block_slices():
            off[sl, sl] = False
        if np.max(np.linalg.norm(y[:, off], axis=-1)) > OFF_BLOCK_TOL:
            raise DomainError("score must be block-diagonal for a block-structured domain")
    return y


def profile_kl(game: GameModel, reference, actions) -> float:
    """Sum of per-player divergences to a reference profile, bound-normalised."""
    total = 0.0
    for spec, ref, x in zip(game.players, reference, actions):
        a = spec.domain.trace_bound
        total += quantum_kl(np.asarray(ref) / a, np.asarray(x) / a)
    return total


def _log_record(game, config, state, gamma, n):
    residual = nash_residual(game, state.actions)
    for spec, x in zip(game.players, state.actions):
        spec.domain.require_member(x, name=f"logged action of player {spec.pid}")
    utilities = tuple(game.utility(i, state.actions) for i in range(game.n_players))
    kl = None
    if config.reference_point is not None:
        kl = profile_kl(game, config.reference_point, state.actions)
    return TraceRecord(n, gamma, utilities, residual, kl)


def run(game: GameModel, config: SolverConfig) -> RunTrace:
    """Synchronous play: `run_async` on the trivial schedule.

    Every player updates every epoch on current feedback (all probabilities 1,
    no delay), so each player's update count is the epoch index.
    """
    return run_async(game, config, AsyncSchedule((1.0,) * game.n_players))


def run_async(game: GameModel, config: SolverConfig, async_schedule: AsyncSchedule) -> RunTrace:
    """Iterate the recursion until the residual target or max_iters.

    Each epoch a random set of players updates. Gradients are evaluated at a
    profile whose per-player components are delayed by independent uniform
    lags from {0..delay_max}; each updating player uses the step size indexed
    by their own update count. An epoch counts for its players only once every
    gradient in it is finite. The stopping residual is evaluated on noiseless
    gradients at every logging checkpoint. A non-finite gradient, or a game or
    domain error, ends the run with status "diverged" and a diagnostic.
    Deterministic for a fixed config and seed.
    """
    if len(async_schedule.probabilities) != game.n_players:
        raise ConfigurationError("async schedule must list one probability per player")
    if async_schedule.delay_max >= config.max_iters:
        raise ConfigurationError("delay_max must be smaller than max_iters")
    probs = async_schedule.probabilities
    d_max = async_schedule.delay_max
    all_update = all(p == 1.0 for p in probs)

    noise_rng, sched_rng = _spawn_streams(config.seed)
    state = initial_state(game, config.y0)
    history = [tuple(state.actions)]  # history[k] is the profile k epochs ago
    counts = [0] * game.n_players
    records: list[TraceRecord] = []
    status = "max_iters"
    iterations = config.max_iters
    diagnostic = None
    try:
        for n in range(1, config.max_iters + 1):
            if async_schedule.mode == "single":
                weights = np.array(probs) / sum(probs)
                update_set = [int(sched_rng.choice(game.n_players, p=weights))]
            elif all_update:
                update_set = list(range(game.n_players))
            else:
                update_set = [i for i, p in enumerate(probs) if sched_rng.random() < p]
            estimates = []
            for i in update_set:
                if d_max == 0:
                    delayed = history[0]
                else:
                    lags = sched_rng.integers(0, d_max + 1, size=game.n_players)
                    delayed = tuple(
                        history[min(int(lag), len(history) - 1)][j]
                        for j, lag in enumerate(lags)
                    )
                v = game.stochastic_gradient(i, delayed, noise_rng)
                if not np.all(np.isfinite(v)):
                    raise NonFiniteGradientError(i, n)
                estimates.append(hermitize(
                    inject_noise(v, config.noise, noise_rng, blocks=game.players[i].domain.blocks)
                ))
            gamma = float("nan")
            for i, vhat in zip(update_set, estimates):
                counts[i] += 1
                gamma = config.schedule.at(counts[i])
                state.scores[i] = state.scores[i] + gamma * vhat
                state.actions[i] = mirror_map(state.scores[i], game.players[i].domain)
            state.n = n + 1
            history.insert(0, tuple(state.actions))
            del history[d_max + 1 :]
            if n % config.log_every == 0 or n == config.max_iters:
                rec = _log_record(game, config, state, gamma, n)
                records.append(rec)
                if rec.nash_residual <= config.stop_residual:
                    status = "converged"
                    iterations = n
                    break
    except (NonFiniteGradientError, DomainError) as err:
        status = "diverged"
        iterations = state.n - 1
        diagnostic = str(err)
    return RunTrace(
        records,
        status,
        iterations,
        config.seed,
        tuple(np.array(x) for x in state.actions),
        tuple(counts),
        diagnostic=diagnostic,
    )


def _spawn_streams(seed: int):
    children = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(children[0]), np.random.default_rng(children[1])
