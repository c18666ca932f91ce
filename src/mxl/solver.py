"""Dual-score learning loop: gradient tracking, exponential projection, noise, traces.

Each epoch adds a (possibly noisy, possibly obsolete) payoff gradient to a
per-player score matrix and maps scores back to the feasible set through the
stable exponential projection. One engine, `advance`, does this for a stack of
trajectories that share one update schedule: `run_async` drives it with a
stack of one, on random update sets and delays; synchronous play (`run`) is its
trivial schedule, where every player updates every epoch without delay; the
rate experiments drive it with one trajectory per seed. A single run is
inherently sequential; concurrency across runs is achieved with independent RNG
streams spawned from the master seed
(SeedSequence(seed).spawn -> [noise stream, scheduling stream]).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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

# Stacked runs draw each seed's standard normals up to CHUNK_STEPS steps' worth
# at once, capped so one chunk of all seeds holds at most CHUNK_FLOATS floats
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

    kind: str = "power_law"
    gamma0: float = 1.0
    exponent: float = 0.5
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

    def check(self, n_players: int, max_iters: int) -> "AsyncSchedule":
        """This schedule, once it lists one probability per player and delays below max_iters."""
        if len(self.probabilities) != n_players:
            raise ConfigurationError("async schedule must list one probability per player")
        if self.delay_max >= max_iters:
            raise ConfigurationError("delay_max must be smaller than max_iters")
        return self


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
    """A stack of trajectories sharing one update schedule.

    Per player, `scores` and `actions` are (S, d, d) stacks; `counts` holds
    each player's update count and `n` the index of the next epoch (1-based).
    """

    scores: list
    actions: list
    counts: list
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


def initial_state(game: GameModel, y0=None, seeds: int = 1) -> SolverState:
    """Scores y0 (zero by default) and their projections, stacked for `seeds` trajectories."""
    if y0 is None:
        scores = [np.zeros((p.domain.dim, p.domain.dim), dtype=complex) for p in game.players]
    else:
        if len(y0) != game.n_players:
            raise ConfigurationError("y0 must provide one score matrix per player")
        scores = [hermitize(np.asarray(y, dtype=complex)) for y in y0]
    actions = [mirror_map(y, p.domain) for y, p in zip(scores, game.players)]
    return SolverState([np.repeat(y[None], seeds, axis=0) for y in scores],
                       [np.repeat(x[None], seeds, axis=0) for x in actions],
                       [0] * game.n_players)


class SeedNoise:
    """Gradient noise for a stack of trajectories, each drawn from its own Generator.

    `drawing` tells whether the game's gradient oracle draws random numbers
    (the game redefines `stochastic_gradient`): `advance` then calls that
    oracle seed by seed on each seed's Generator, and otherwise takes the exact
    `gradient_stack`. When every update of a player draws the same number of
    standard normals (noise `gaussian` or `relative`, and a gradient that draws
    nothing), each seed's normals are drawn ahead, up to CHUNK_STEPS steps'
    worth at a time, and handed out from a flat cursor in the order the players
    update. A Generator yields the same stream however its draws are grouped,
    so every perturbation equals the one `inject_noise` would draw, bit for
    bit, whichever players update. Otherwise `inject_noise` runs seed by seed,
    right after each player's gradient.
    """

    def __init__(self, game: GameModel, model: NoiseModel, rngs, steps: int):
        self.game, self.model, self.rngs = game, model, list(rngs)
        self.drawing = type(game).stochastic_gradient is not GameModel.stochastic_gradient
        self.chunked = model.kind in ("gaussian", "relative") and not self.drawing
        self.widths = [sum(2 * (sl.stop - sl.start) ** 2 for sl in p.domain.slices)
                       for p in game.players]
        width = sum(self.widths)
        chunk = max(1, min(CHUNK_STEPS, steps, CHUNK_FLOATS // max(len(self.rngs) * width, 1)))
        self.buffer = np.empty((len(self.rngs), chunk * width if self.chunked else 0))
        self.draws = self.buffer[:, :0]
        self.pos = 0
        self.remaining = steps * width  # no run of `steps` epochs uses more

    def _next(self, count: int) -> np.ndarray:
        """Every seed's next `count` normals, drawing ahead when the buffer runs short."""
        if self.pos + count > self.draws.shape[1]:
            left = self.draws.shape[1] - self.pos
            self.buffer[:, :left] = self.draws[:, self.pos:]
            fresh = min(self.buffer.shape[1] - left, self.remaining)
            self.remaining -= fresh
            self.draws = self.buffer[:, : left + fresh]
            for rng, out in zip(self.rngs, self.draws[:, left:]):
                rng.standard_normal(out=out)
            self.pos = 0
        self.pos += count
        return self.draws[:, self.pos - count : self.pos]

    def perturb(self, i: int, v: np.ndarray) -> np.ndarray:
        """Hermitian part of V + Z for player i's gradient stack V, one Z per seed."""
        model = self.model
        if model.kind == "none":
            return hermitize(v)
        domain = self.game.players[i].domain
        if not self.chunked:
            return hermitize(np.stack([
                inject_noise(vs, model, rng, blocks=domain.blocks) for vs, rng in zip(v, self.rngs)
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
        draws = self._next(self.widths[i])
        z = np.zeros_like(v) if len(domain.slices) > 1 else None
        pos = 0
        for sl in domain.slices:
            b = sl.stop - sl.start
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
                z[:, sl, sl] = zb
        return hermitize(v + z)


def advance(game: GameModel, state: SolverState, step_schedule: StepSchedule,
            noise: SeedNoise, steps: int, async_schedule: AsyncSchedule | None = None,
            sched_rng: np.random.Generator | None = None):
    """Advance every trajectory of `state` in place through epochs state.n..steps.

    Yields (n, gamma) after epoch n, gamma being the step size of the epoch's
    last update (nan if nobody updated). Each epoch a set of players updates,
    drawn from `sched_rng` unless the schedule is synchronous (the default).
    Each updating player's gradient is evaluated at a profile whose per-player
    components lag by independent uniform delays from {0..delay_max}, and
    their step size is indexed by their own update count. All trajectories
    share the update set, the delays and the counts; trajectory s draws only
    from `noise.rngs[s]`. An epoch is committed, and counts for its players,
    only once every updated score is finite: otherwise it raises
    NonFiniteGradientError (for a non-finite gradient) or DomainError.
    """
    schedule = async_schedule or AsyncSchedule((1.0,) * game.n_players)
    probs, d_max = schedule.probabilities, schedule.delay_max
    weights = np.array(probs) / sum(probs)
    everyone = range(game.n_players)
    all_update = all(p == 1.0 for p in probs)
    history = [tuple(state.actions)]  # history[k] is the profile k epochs ago
    for n in range(state.n, steps + 1):
        if schedule.mode == "single":
            update_set = [int(sched_rng.choice(game.n_players, p=weights))]
        elif all_update:
            update_set = everyone
        else:
            update_set = [i for i, p in enumerate(probs) if sched_rng.random() < p]
        gamma = float("nan")
        scores = []
        for i in update_set:
            if d_max == 0:
                delayed = history[0]
            else:
                lags = sched_rng.integers(0, d_max + 1, size=game.n_players)
                delayed = tuple(
                    history[min(int(lag), len(history) - 1)][j] for j, lag in enumerate(lags)
                )
            if noise.drawing:
                v = np.stack([game.stochastic_gradient(i, [a[s] for a in delayed], rng)
                              for s, rng in enumerate(noise.rngs)])
            else:
                v = game.gradient_stack(i, delayed)
            gamma = step_schedule.at(state.counts[i] + 1)
            # an overflow or NaN here leaves a non-finite score, which _checked_score reports
            with np.errstate(over="ignore", invalid="ignore"):
                y = state.scores[i] + gamma * noise.perturb(i, v)
            scores.append(_checked_score(y, v, game.players[i].domain, i, n))
        actions = [exp_projection(y, game.players[i].domain) for i, y in zip(update_set, scores)]
        for i, y, x in zip(update_set, scores, actions):
            state.scores[i], state.actions[i] = y, x
            state.counts[i] += 1
        state.n = n + 1
        history.insert(0, tuple(state.actions))
        del history[d_max + 1 :]
        yield n, gamma


def _checked_score(y: np.ndarray, v: np.ndarray, domain, i: int, n: int) -> np.ndarray:
    """Player i's updated score stack at epoch n, once it is finite and block-diagonal.

    A non-finite gradient V makes the score non-finite, so one check on the
    score covers both; V is inspected only to name the cause.
    """
    if not np.isfinite(y).all():
        if not np.isfinite(v).all():
            raise NonFiniteGradientError(i, n)
        raise DomainError("score has non-finite entries")
    if domain.off_block_mass(y) > OFF_BLOCK_TOL:
        raise DomainError("score must be block-diagonal for a block-structured domain")
    return y


def profile_kl(game: GameModel, reference, actions) -> float:
    """Sum of per-player divergences to a reference profile, bound-normalised."""
    total = 0.0
    for spec, ref, x in zip(game.players, reference, actions):
        a = spec.domain.trace_bound
        total += quantum_kl(np.asarray(ref) / a, np.asarray(x) / a)
    return total


def _log_record(game, config, actions, gamma, n):
    residual = nash_residual(game, actions)
    utilities = tuple(game.utility(i, actions) for i in range(game.n_players))
    kl = None
    if config.reference_point is not None:
        kl = profile_kl(game, config.reference_point, actions)
    return TraceRecord(n, gamma, utilities, residual, kl)


def run(game: GameModel, config: SolverConfig) -> RunTrace:
    """Synchronous play: `run_async` on the trivial schedule.

    Every player updates every epoch on current feedback (all probabilities 1,
    no delay), so each player's update count is the epoch index.
    """
    return run_async(game, config, AsyncSchedule((1.0,) * game.n_players))


def run_async(game: GameModel, config: SolverConfig, async_schedule: AsyncSchedule) -> RunTrace:
    """One trajectory: `advance` on a stack of one, until the residual target or max_iters.

    The stopping residual is evaluated on noiseless gradients at every logging
    checkpoint. A non-finite gradient or score, a game or domain error, or an
    eigensolver failure ends the run with status "diverged" and the error's
    message as diagnostic; the aborted epoch counts for no player.
    Deterministic for a fixed config and seed.
    """
    async_schedule.check(game.n_players, config.max_iters)
    noise_rng, sched_rng = map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(2))
    state = initial_state(game, config.y0)
    noise = SeedNoise(game, config.noise, [noise_rng], config.max_iters)
    records: list[TraceRecord] = []
    status, diagnostic = "max_iters", None
    try:
        for n, gamma in advance(game, state, config.schedule, noise, config.max_iters,
                                async_schedule, sched_rng):
            if n % config.log_every == 0 or n == config.max_iters:
                records.append(_log_record(game, config, [a[0] for a in state.actions], gamma, n))
                if records[-1].nash_residual <= config.stop_residual:
                    status = "converged"
                    break
    except (NonFiniteGradientError, DomainError, np.linalg.LinAlgError) as err:
        status, diagnostic = "diverged", str(err)
    return RunTrace(records, status, state.n - 1, config.seed,
                    tuple(a[0].copy() for a in state.actions), tuple(state.counts),
                    diagnostic=diagnostic)
