"""Dual-score learning loop: gradient tracking, exponential projection, noise, traces.

Each epoch adds a (possibly noisy, possibly obsolete) payoff gradient to a
per-player score matrix and maps scores back to the feasible set through the
stable exponential projection. Scores and actions live as the diagonal blocks
of the player's domain (one block when it is unblocked): the noise, the score
update, its checks and the projection all keep the blocks, so only a gradient
can put mass outside them, and whole matrices are assembled only where
something reads them (the profile a gradient is taken at, log points, rate
checkpoints, final actions). One engine, `advance`, does this for a stack of
trajectories that share one update schedule, one step per group of players
with equal domains, on their (G, S, blocks, m, m) block stack. One driver,
`run_batch`, runs a list of seeds on it: as one stack under synchronous play
(`run`, where every player updates every epoch without delay), else seed by
seed, on random update sets and delays; `run_async` is `run_batch` of one. The
rate experiments drive `advance` with one trajectory per seed. Each trajectory
draws from its own RNG streams (SeedSequence(seed).spawn -> [noise stream,
scheduling stream]).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .games import GameModel, nash_residual
from .spectral import (
    CHUNK_FLOATS,
    OFF_BLOCK_TOL,
    DomainError,
    Spectrahedron,
    _float_or_stack,
    block_noise,
    exp_projection_blocks,
    hermitize,
    mirror_map,
    quantum_kl,
)

# Stacked runs draw each seed's standard normals up to CHUNK_STEPS steps' worth
# at once, capped so one chunk of all seeds holds at most CHUNK_FLOATS floats;
# the chunk buffer is the only memory that grows with the seed count.
CHUNK_STEPS = 1000


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


def relative_sigma(v: np.ndarray, level: float):
    """Sigma giving a Gaussian Hermitian draw Frobenius magnitude level*||V||_F, per matrix
    of an (..., d, d) stack (a float for one matrix). Each norm is np.linalg.norm's, bit
    for bit: the dot products of the real and of the imaginary parts, added."""
    v = np.asarray(v)
    flat = v.reshape(v.shape[:-2] + (1, -1))
    re, im = flat.real, flat.imag
    norms = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]
    return _float_or_stack(level * norms / np.sqrt(v.shape[-1]))


def inject_noise(v: np.ndarray, model: NoiseModel, rng: np.random.Generator,
                 domain: Spectrahedron | None = None) -> np.ndarray:
    """Return the perturbed gradient estimate V + Z for the given noise model.

    Z lies in the diagonal blocks of the player's `domain` (feedback is per block;
    unblocked without one), keeping the exponential projection feasible. Its
    normals come in one draw, block by block, real parts before imaginary parts.
    """
    if model.kind == "none":
        return v
    domain = domain or Spectrahedron(v.shape[0])
    if model.kind == "pareto":
        # heavy-tailed magnitude on a unit-Frobenius Hermitian direction
        direction = domain.sample_direction(rng)
        return v + model.scale * rng.pareto(model.tail_index) * direction
    sigma = model.sigma if model.kind == "gaussian" else relative_sigma(v, model.level)
    m = domain.dim // domain.blocks
    normals = rng.standard_normal((domain.blocks, 2, m, m))
    return v + domain.block_diagonal(block_noise(normals, sigma, model.hermitian))


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

    Per player, `scores` and `actions` are (S, blocks, m, m) stacks of the diagonal
    blocks of the player's domain (an unblocked domain is one block), the only form
    they are kept in; `dense_profile` assembles the (S, d, d) matrices. `counts`
    holds each player's update count and `n` the index of the next epoch (1-based).
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
    """Scores y0 (zero by default) and their projections, as block stacks for `seeds`
    trajectories."""
    domains = game.domains
    if y0 is None:
        scores = [np.zeros((d.dim, d.dim), dtype=complex) for d in domains]
    else:
        if len(y0) != game.n_players:
            raise ConfigurationError("y0 must provide one score matrix per player")
        scores = [hermitize(np.asarray(y, dtype=complex)) for y in y0]
    actions = [mirror_map(y, d) for y, d in zip(scores, domains)]

    def stacked(x, domain):
        return np.repeat(domain.diagonal_blocks(x)[None], seeds, axis=0)

    return SolverState([stacked(y, d) for y, d in zip(scores, domains)],
                       [stacked(x, d) for x, d in zip(actions, domains)],
                       [0] * game.n_players)


def dense_profile(game: GameModel, stacks) -> list:
    """Per-player (..., d, d) stacks assembled from (..., blocks, m, m) block stacks, such as
    a SolverState's actions (for an unblocked domain, a view)."""
    return [p.domain.block_diagonal(x) for p, x in zip(game.players, stacks)]


class SeedNoise:
    """Gradient noise for a stack of trajectories, each drawn from its own Generator.

    `drawing` tells whether the game's gradient oracle draws random numbers
    (the game redefines `stochastic_gradient`): `advance` then calls that
    oracle seed by seed on each seed's Generator, and otherwise takes the exact
    gradient stacks. When every update of a player draws the same number of
    standard normals (noise `gaussian` or `relative`, and a gradient that draws
    nothing), each seed's normals are drawn ahead, up to CHUNK_STEPS steps'
    worth at a time, and handed out from a flat cursor in the order the players
    update (one draw per epoch, sliced per player). A Generator yields the same
    stream however its draws are grouped, so every perturbation equals the one
    `inject_noise` would draw, bit for bit, whichever players update. The noise blocks
    are added to the gradient's diagonal blocks. Otherwise (`each`) `inject_noise` runs
    seed by seed, player by player in update order, a drawing oracle's right after its
    gradient.
    """

    def __init__(self, game: GameModel, model: NoiseModel, rngs, steps: int):
        self.game, self.model, self.rngs = game, model, list(rngs)
        self.drawing = type(game).stochastic_gradient is not GameModel.stochastic_gradient
        self.chunked = model.kind in ("gaussian", "relative") and not self.drawing
        self.each = model.kind != "none" and not self.chunked  # drawn seed by seed, per player
        self.widths = [2 * p.domain.dim ** 2 // p.domain.blocks for p in game.players]
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

    def keep(self, rows) -> None:
        """Keep only the given seeds (row indices), each with its Generator and drawn normals."""
        self.rngs = [self.rngs[r] for r in rows]
        self.buffer = self.buffer[rows]
        self.draws = self.buffer[:, : self.draws.shape[1]]

    def perturb(self, i: int, v: np.ndarray, normals: np.ndarray | None = None) -> np.ndarray:
        """Hermitian part of V + Z, as its (..., blocks, m, m) diagonal blocks on player i's
        domain, for player i's block-diagonal gradient stack V, one Z per seed, or for a
        (G, S, d, d) stack V of G players on i's domain, with their normals (G, S, width).
        A relative level is taken of V's whole matrices."""
        model = self.model
        domain = self.game.players[i].domain
        if model.kind == "none":
            return hermitize(domain.diagonal_blocks(v))
        if not self.chunked:  # an overflow leaves a non-finite score, which `advance` reports
            with np.errstate(over="ignore", invalid="ignore"):
                v = np.stack([inject_noise(vs, model, rng, domain)
                              for vs, rng in zip(v, self.rngs)])
            return hermitize(domain.diagonal_blocks(v))
        sigma = model.sigma
        if model.kind == "relative":
            sigma = relative_sigma(v, model.level)[..., None, None, None]
        n, m = domain.blocks, v.shape[-1] // domain.blocks
        normals = self._next(self.widths[i]) if normals is None else normals
        blocks = block_noise(normals.reshape(v.shape[:-2] + (n, 2, m, m)), sigma,
                             model.hermitian)
        return hermitize(domain.diagonal_blocks(v) + blocks)


def advance(game: GameModel, state: SolverState, step_schedule: StepSchedule,
            noise: SeedNoise, steps: int, async_schedule: AsyncSchedule | None = None,
            sched_rng: np.random.Generator | None = None):
    """Advance every trajectory of `state` in place through epochs state.n..steps.

    Yields (n, gamma) after epoch n, gamma being the step size of the epoch's
    last update (nan if nobody updated). Each epoch a set of players updates,
    drawn from `sched_rng` unless the schedule is synchronous (the default).
    Each updating player's gradient is evaluated at a profile whose per-player
    components lag by independent uniform delays from {0..delay_max}, and
    their step size is indexed by their own update count. Without delays, and
    when the game's gradient oracle draws nothing, one `gradient_stacks` call
    gives the epoch's gradients; otherwise each player's is taken in turn,
    interleaved with its noise as a drawing oracle's stream needs. The profiles
    gradients are taken at are dense: each epoch assembles its updated players'
    actions once. Players with equal domains form a group: one off-block check of
    the gradients, whose diagonal blocks are then read once, and one perturbation
    (buffered normals from one draw per epoch, in update order), score update,
    finiteness check and exponential projection on a (G, S, blocks, m, m) block
    stack. All trajectories share the update set, the delays and the counts;
    trajectory s draws only from `noise.rngs[s]`. An epoch is committed only once
    every updated score is finite and every gradient block-diagonal: otherwise it
    raises NonFiniteGradientError (for a non-finite gradient) or DomainError, for
    the first such player in update order.
    """
    schedule = async_schedule or AsyncSchedule((1.0,) * game.n_players)
    probs, d_max = schedule.probabilities, schedule.delay_max
    weights = np.array(probs) / sum(probs)
    everyone = range(game.n_players)
    all_update = all(p == 1.0 for p in probs)
    batched = d_max == 0 and not noise.drawing
    group_of = [game.domains.index(p.domain) for p in game.players]  # equal domains, one group
    plans = {}
    history = [tuple(dense_profile(game, state.actions))]  # history[k]: the profile k epochs ago

    def scores(players, gradients, perturbed, n):
        """Step sizes of `players`, and (domain, members, new score blocks) per group, once
        valid."""
        key = tuple(players)
        if key not in plans:  # the groups of this update set, and where each one's normals end
            groups = {}
            for k, i in enumerate(players):
                groups.setdefault(group_of[i], []).append(k)
            plans[key] = ([(game.players[players[ks[0]]].domain, ks, [players[k] for k in ks])
                           for ks in groups.values()],
                          list(accumulate(noise.widths[i] for i in players)))
        groups, ends = plans[key]
        gammas, out, valid = [step_schedule.at(state.counts[i] + 1) for i in players], [], True
        draws = noise._next(ends[-1]) if noise.chunked and ends else None
        # an overflow or NaN here leaves a non-finite score, which the check below reports
        with np.errstate(over="ignore", invalid="ignore"):
            for domain, ks, members in groups:
                g = [gammas[k] for k in ks]
                g = g[0] if g.count(g[0]) == len(g) else np.array(g)[:, None, None, None, None]
                v = np.array([gradients[k] for k in ks])
                # noise and projection keep the blocks: only a gradient can leave them
                valid = valid and domain.off_block_mass(v) <= OFF_BLOCK_TOL
                if perturbed is None:
                    normals = None if draws is None else np.array(
                        [draws[:, ends[k] - noise.widths[members[0]] : ends[k]] for k in ks])
                    w = noise.perturb(members[0], v, normals)
                else:
                    w = np.array([perturbed[k] for k in ks])
                y = np.array([state.scores[i] for i in members]) + g * w
                valid = valid and np.isfinite(y).all()
                out.append((domain, members, y))
        if not valid:
            rows = {i: y[j] for _, members, y in out for j, i in enumerate(members)}
            for k, i in enumerate(players):  # each player's own check, in update order
                finite = np.isfinite(gradients[k]).all()
                if not (finite and np.isfinite(rows[i]).all()):
                    if not finite:
                        raise NonFiniteGradientError(i, n)
                    raise DomainError("score has non-finite entries")
                if not game.players[i].domain.off_block_mass(gradients[k]) <= OFF_BLOCK_TOL:
                    raise DomainError("score must be block-diagonal for a block-structured domain")
        return gammas, out

    for n in range(state.n, steps + 1):
        if schedule.mode == "single":
            update_set = [int(sched_rng.choice(game.n_players, p=weights))]
        elif all_update:
            update_set = everyone
        else:
            update_set = [i for i, p in enumerate(probs) if sched_rng.random() < p]
        perturbed = [] if noise.each else None  # noise drawn seed by seed, in update order
        gradients = game.gradient_stacks(history[0], update_set) if batched else []
        for k, i in enumerate(update_set):
            if not batched:
                if d_max == 0:
                    delayed = history[0]
                else:
                    lags = sched_rng.integers(0, d_max + 1, size=game.n_players).tolist()
                    last = len(history) - 1
                    delayed = tuple([history[min(lag, last)][j] for j, lag in enumerate(lags)])
                try:
                    if noise.drawing:
                        v = np.stack([game.stochastic_gradient(i, [a[s] for a in delayed], rng)
                                      for s, rng in enumerate(noise.rngs)])
                    else:
                        v = game.gradient_stack(i, delayed)
                except (DomainError, np.linalg.LinAlgError):  # an earlier invalid score first
                    scores(update_set[:k], gradients, perturbed, n)
                    raise
                gradients.append(v)
            if perturbed is not None:
                perturbed.append(noise.perturb(i, gradients[k]))
        gammas, groups = scores(update_set, gradients, perturbed, n) if update_set else ([], [])
        profile = list(history[0])
        for domain, members, y in groups:
            x = exp_projection_blocks(y, domain)
            dense = domain.block_diagonal(x)
            for j, i in enumerate(members):
                state.scores[i], state.actions[i], profile[i] = y[j], x[j], dense[j]
                state.counts[i] += 1
        state.n = n + 1
        history.insert(0, tuple(profile))
        del history[d_max + 1 :]
        yield n, gammas[-1] if gammas else float("nan")


def profile_kl(game: GameModel, reference, actions) -> float:
    """Sum of per-player divergences to a reference profile, bound-normalised, per profile."""
    total = 0.0
    for spec, ref, x in zip(game.players, reference, actions):
        a = spec.domain.trace_bound
        total = total + quantum_kl(np.asarray(ref) / a, np.asarray(x) / a)
    return total


def _log_record(game, config, actions, gamma, n) -> list[TraceRecord]:
    """Epoch n's records, one per profile of the (S, d, d) stacks `actions`, in Python floats."""
    residuals = nash_residual(game, actions, checked=False).tolist()
    utilities = zip(*[game.utility_stack(i, actions).tolist() for i in range(game.n_players)])
    kls = [None] * len(residuals)
    if config.reference_point is not None:
        kls = profile_kl(game, config.reference_point, actions).tolist()
    return [TraceRecord(n, gamma, u, r, kl) for u, r, kl in zip(utilities, residuals, kls)]


def run(game: GameModel, config: SolverConfig) -> RunTrace:
    """Synchronous play of seed config.seed: every player updates every epoch on
    current feedback, so each player's update count is the epoch index."""
    return run_batch(game, config, [config.seed])[0]


def run_async(game: GameModel, config: SolverConfig, async_schedule: AsyncSchedule) -> RunTrace:
    """One trajectory of seed config.seed: `run_batch` of one."""
    return run_batch(game, config, [config.seed], async_schedule)[0]


def run_batch(game: GameModel, config: SolverConfig, seeds,
              async_schedule: AsyncSchedule | None = None) -> list[RunTrace]:
    """One trace per seed of a non-empty sequence, each bit-identical to the seed's solo run.

    A run stops at max_iters, or at a logging checkpoint whose residual, on
    noiseless gradients, reaches stop_residual. A non-finite gradient or score,
    a game or domain error, or an eigensolver failure ends it as "diverged",
    with the error's message as diagnostic; the aborted epoch counts for no
    player. The trivial schedule (the default), which never draws, runs the
    seeds as one stack, which finished rows leave; `advance` then restarts from
    state.n, exact without delays. Any other schedule runs each seed alone.
    """
    trivial = AsyncSchedule((1.0,) * game.n_players)
    schedule = (async_schedule or trivial).check(game.n_players, config.max_iters)
    if len(seeds) > 1 and schedule != trivial:
        return [run_batch(game, config, [seed], schedule)[0] for seed in seeds]
    streams = [np.random.SeedSequence(seed).spawn(2) for seed in seeds]
    noise = SeedNoise(game, config.noise, [np.random.default_rng(s[0]) for s in streams],
                      config.max_iters)
    sched_rng = np.random.default_rng(streams[0][1])  # drawn only by a stack of one
    state = initial_state(game, config.y0, len(seeds))
    records, traces, live = [[] for _ in seeds], [None] * len(seeds), list(range(len(seeds)))

    def finish(k, row, status, diagnostic=None):  # seed k, at this row of the stack
        final = dense_profile(game, [a[row] for a in state.actions])
        traces[k] = RunTrace(records[k], status, state.n - 1, seeds[k],
                             tuple(np.array(x) for x in final), tuple(state.counts), diagnostic)

    try:
        while live:
            for n, gamma in advance(game, state, config.schedule, noise, config.max_iters,
                                    schedule, sched_rng):
                if n % config.log_every and n != config.max_iters:
                    continue
                kept = []
                logged = _log_record(game, config, dense_profile(game, state.actions), gamma, n)
                for row, (k, record) in enumerate(zip(live, logged)):
                    records[k].append(record)
                    if record.nash_residual <= config.stop_residual:
                        finish(k, row, "converged")
                    elif n == config.max_iters:
                        finish(k, row, "max_iters")
                    else:
                        kept.append(row)
                if len(kept) < len(live):
                    live = [live[row] for row in kept]
                    state.scores = [y[kept] for y in state.scores]
                    state.actions = [x[kept] for x in state.actions]
                    noise.keep(kept)
                    break
    except (NonFiniteGradientError, DomainError, np.linalg.LinAlgError) as err:
        if len(live) > 1:  # the error ends the stack: each unfinished seed reruns alone
            return [t or run_batch(game, config, [seed], schedule)[0]
                    for seed, t in zip(seeds, traces)]
        finish(live[0], 0, "diverged", str(err))
    return traces
