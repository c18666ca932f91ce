"""Dual-score learning loop: gradient tracking, exponential projection, noise, traces.

Each epoch adds a (possibly noisy, possibly obsolete) payoff gradient to a
per-player score matrix and maps scores back to the feasible set through the
stable exponential projection. Scores live as the diagonal blocks of the
player's domain (one block when it is unblocked): the noise, the score update,
its checks and the projection all keep the blocks, so only a gradient can put
mass outside them. Actions live as whole matrices, the form every reader takes
(the gradient oracle, log points, rate checkpoints, final actions). One engine,
`advance`, does this for a stack of trajectories that share one update
schedule, one step per group of players with equal domains, on their
(G, S, blocks, m, m) block stack. One driver,
`run_batch`, runs a list of seeds on it: as one stack under synchronous play
(`run`, where every player updates every epoch without delay), else seed by
seed, on random update sets and delays; `run_async` is `run_batch` of one. The
rate experiments drive `advance` with one trajectory per seed. Each trajectory
draws from its own RNG streams (SeedSequence(seed).spawn -> [noise stream,
scheduling stream]).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
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
    frobenius_norm,
    hermitize,
    mirror_map,
    noise_scale,
    noise_units,
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


def relative_sigma(v: np.ndarray, level):
    """Sigma giving a Gaussian Hermitian draw Frobenius magnitude level*||V||_F, per matrix
    of an (..., d, d) stack (a float for one matrix); `level` is a float or an array
    broadcasting against the stack's (...) matrices."""
    return _float_or_stack(level * frobenius_norm(v) / np.sqrt(np.shape(v)[-1]))


def gaussian_blocks(v: np.ndarray, model: NoiseModel, normals: np.ndarray) -> np.ndarray:
    """The diagonal noise blocks of a `gaussian` or `relative` model for the gradient V (one
    matrix or an (..., d, d) stack), from their (..., blocks, 2, m, m) standard normals; a
    relative level is taken of V's whole matrices."""
    sigma = model.sigma
    if model.kind == "relative":
        sigma = np.asarray(relative_sigma(v, model.level))[..., None, None, None]
    return block_noise(normals, sigma, model.hermitian)


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
    m = domain.dim // domain.blocks
    normals = rng.standard_normal((domain.blocks, 2, m, m))
    return v + domain.block_diagonal(gaussian_blocks(v, model, normals))


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

    Per player, `scores` is the (S, blocks, m, m) stack of the diagonal blocks of the
    player's domain (an unblocked domain is one block), the form the score update and
    the exponential projection work on, and `actions` is the (S, d, d) stack of whole
    matrices that the gradient oracle, the log points and the final trace read. `counts`
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
    """Scores y0 (zero by default) as block stacks and their projections as (S, d, d)
    stacks, for S = `seeds` trajectories."""
    domains = game.domains
    if y0 is None:
        scores = [np.zeros((d.dim, d.dim), dtype=complex) for d in domains]
    else:
        if len(y0) != game.n_players:
            raise ConfigurationError("y0 must provide one score matrix per player")
        scores = [hermitize(np.asarray(y, dtype=complex)) for y in y0]
    return SolverState([np.repeat(d.diagonal_blocks(y)[None], seeds, axis=0)
                        for y, d in zip(scores, domains)],
                       [np.repeat(mirror_map(y, d)[None], seeds, axis=0)
                        for y, d in zip(scores, domains)],
                       [0] * game.n_players)


class SeedNoise:
    """Gradient noise for a stack of trajectories, each drawn from its own Generator.

    `models` is one NoiseModel per row, or one model for every row; the rows'
    models may differ only in their scale, `sigma` and `level`, which are held
    as (S,) arrays broadcasting over the (G, S, blocks, m, m) block stack, so
    each row's noise is its own model's.
    `drawing` tells whether the game's gradient oracle draws random numbers
    (the game redefines `stochastic_gradient`): `advance` then calls that
    oracle seed by seed on each seed's Generator, and otherwise takes the exact
    gradient stacks. When every update of a player draws the same number of
    standard normals (noise `gaussian` or `relative`, and a gradient that draws
    nothing) and every player's diagonal blocks have one size m, each seed's
    stream is a plain sequence of (2, m, m) units of normals whatever the update
    order (`chunked`). Each seed's units are then drawn ahead, up to CHUNK_STEPS
    steps' worth at a time, and made into unscaled noise blocks once per chunk
    (`noise_units`: A + A^dag, or A for raw noise); a flat cursor hands them out in
    the order the players update, and each epoch only scales them
    (`noise_scale`). A Generator yields the same stream however its draws are
    grouped, so every perturbation equals the one `inject_noise` would draw, bit
    for bit, whichever players update. The noise blocks are added to the
    gradient's diagonal blocks. Otherwise (`each`) `inject_noise` runs seed by
    seed with the seed's own model, player by player in update order, a drawing
    oracle's right after its gradient.
    """

    def __init__(self, game: GameModel, models, rngs, steps: int):
        self.game, self.rngs = game, list(rngs)
        self.models = ([models] * len(self.rngs) if isinstance(models, NoiseModel)
                       else list(models))
        self.model = model = self.models[0]  # the kind and form of every row's noise
        if len(self.models) != len(self.rngs) or any(
                replace(row, sigma=model.sigma, level=model.level) != model
                for row in self.models):
            raise ConfigurationError("a noise stack takes one model per seed, differing "
                                     "only in sigma and level")
        self.drawing = type(game).stochastic_gradient is not GameModel.stochastic_gradient
        sizes = {d.dim // d.blocks for d in game.domains}
        self.chunked = (model.kind in ("gaussian", "relative") and not self.drawing
                        and len(sizes) == 1)
        self.each = model.kind != "none" and not self.chunked  # drawn seed by seed, per player
        self.units = [d.blocks for d in game.domains]  # noise blocks per update
        self.m = m = max(sizes)
        width = sum(self.units)
        chunk = max(1, min(CHUNK_STEPS, steps,
                           CHUNK_FLOATS // max(len(self.rngs) * width * 2 * m * m, 1)))
        self.buffer = np.empty((len(self.rngs), chunk * width if self.chunked else 0, m, m),
                               dtype=complex)
        self.blocks = self.buffer[:, :0]
        self.pos = 0
        self.remaining = steps * width  # no run of `steps` epochs uses more
        # per row: the scale of gaussian noise, and the relative level
        sigmas = np.array([row.sigma for row in self.models], dtype=float)
        self.scale = noise_scale(sigmas[:, None, None, None], m, model.hermitian)
        self.level = np.array([row.level for row in self.models], dtype=float)

    def _next(self, count: int) -> np.ndarray:
        """Every seed's next `count` unscaled noise blocks, (S, count, m, m), making blocks
        ahead when the buffer runs short."""
        if self.pos + count > self.blocks.shape[1]:
            left = self.blocks.shape[1] - self.pos
            self.buffer[:, :left] = self.blocks[:, self.pos:]
            fresh = min(self.buffer.shape[1] - left, self.remaining)
            self.remaining -= fresh
            normals = np.empty((len(self.rngs), fresh, 2, self.m, self.m))
            for rng, out in zip(self.rngs, normals):
                rng.standard_normal(out=out)
            self.buffer[:, left : left + fresh] = noise_units(normals, self.model.hermitian)
            self.blocks = self.buffer[:, : left + fresh]
            self.pos = 0
        self.pos += count
        return self.blocks[:, self.pos - count : self.pos]

    def keep(self, rows) -> None:
        """Keep only the given seeds (row indices), each with its Generator, model and made
        blocks."""
        self.rngs = [self.rngs[r] for r in rows]
        self.models = [self.models[r] for r in rows]
        self.scale, self.level = self.scale[rows], self.level[rows]
        self.buffer = self.buffer[rows]
        self.blocks = self.buffer[:, : self.blocks.shape[1]]

    def perturb(self, i: int, v: np.ndarray, units: np.ndarray | None = None) -> np.ndarray:
        """Hermitian part of V + Z, as its (..., blocks, m, m) diagonal blocks on player i's
        domain, for player i's block-diagonal gradient stack V, one Z per seed, or for a
        (G, S, d, d) stack V of G players on i's domain. Buffered noise takes its unscaled
        blocks, (..., S, blocks, m, m), from the caller. A relative level is taken of V's
        whole matrices."""
        model = self.model
        domain = self.game.players[i].domain
        if model.kind == "none":
            return hermitize(domain.diagonal_blocks(v))
        if not self.chunked:  # an overflow leaves a non-finite score, which `advance` reports
            with np.errstate(over="ignore", invalid="ignore"):
                v = np.stack([inject_noise(vs, row, rng, domain)
                              for vs, row, rng in zip(v, self.models, self.rngs)])
            return hermitize(domain.diagonal_blocks(v))
        scale = self.scale if model.kind == "gaussian" else noise_scale(
            relative_sigma(v, self.level)[..., None, None, None], self.m, model.hermitian)
        return hermitize(domain.diagonal_blocks(v) + scale * units)


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
    gives the epoch's gradients (a group that is the whole update set, in order,
    takes them as its stack); otherwise each player's is taken in turn, interleaved
    with its noise as a drawing oracle's stream needs. Exact gradients are taken
    unchecked (`checked=False`), delayed or not, as every action is the
    projection's. Players with
    equal domains form a group: one off-block check of the gradients, whose
    diagonal blocks are then read once, and one perturbation (buffered noise blocks,
    a slice of the epoch's units in update order), score update, finiteness check and
    exponential projection on a (G, S, blocks, m, m) block stack. A group whose
    members are those of the last epoch that updated it (every synchronous epoch)
    updates that epoch's score stack as it is; otherwise the members' score blocks
    are stacked. Each member keeps its score blocks, rows of the stack, and its
    action, assembled once as (S, d, d) matrices; the delay history holds snapshots
    of the actions. With delays, one draw gives the lags of every updating player
    before the first gradient. All trajectories share the update set,
    the delays and the counts; trajectory s draws only from `noise.rngs[s]`. An
    epoch is committed only once every updated score is finite and every gradient
    block-diagonal: otherwise it raises NonFiniteGradientError (for a non-finite
    gradient) or DomainError, for the first such player in update order.
    """
    schedule = async_schedule or AsyncSchedule((1.0,) * game.n_players)
    probs, d_max = schedule.probabilities, schedule.delay_max
    weights = np.array(probs) / sum(probs)
    everyone = range(game.n_players)
    all_update = all(p == 1.0 for p in probs)
    batched = d_max == 0 and not noise.drawing
    group_of = [game.domains.index(p.domain) for p in game.players]  # equal domains, one group
    plans = {}
    resident = {}  # group -> (members, score stack) of the last epoch that updated it
    history = [tuple(state.actions)]  # history[k]: the profile k epochs ago

    def scores(players, gradients, perturbed, n):
        """Step sizes of `players`, and (group, domain, members, new score blocks) per group,
        once valid."""
        key = tuple(players)
        if key not in plans:  # per group of this update set: its members and noise units
            groups = {}
            for k, i in enumerate(players):
                groups.setdefault(group_of[i], []).append(k)
            ends = list(accumulate(noise.units[i] for i in players))
            plan = []
            for group, ks in groups.items():
                units = np.concatenate([np.arange(ends[k] - noise.units[players[k]], ends[k])
                                        for k in ks])
                if units[-1] - units[0] == len(units) - 1:  # consecutive units: a view
                    units = slice(units[0], units[-1] + 1)
                plan.append((group, game.domains[group], ks, [players[k] for k in ks],
                             ks == list(range(len(players))), units))
            plans[key] = (plan, ends[-1] if ends else 0)
        groups, width = plans[key]
        gammas, out, valid = [step_schedule.at(state.counts[i] + 1) for i in players], [], True
        blocks = noise._next(width) if noise.chunked and width else None
        # an overflow or NaN here leaves a non-finite score, which the check below reports
        with np.errstate(over="ignore", invalid="ignore"):
            for group, domain, ks, members, whole, units in groups:
                g = [gammas[k] for k in ks]
                g = g[0] if g.count(g[0]) == len(g) else np.array(g)[:, None, None, None, None]
                # the whole update set, in order, is one stack as it comes
                v = np.asarray(gradients) if whole else np.array([gradients[k] for k in ks])
                # noise and projection keep the blocks: only a gradient can leave them
                valid = valid and domain.off_block_mass(v) <= OFF_BLOCK_TOL
                if perturbed is None:
                    z = None if blocks is None else blocks[:, units].reshape(
                        (len(blocks), len(ks), domain.blocks) + blocks.shape[2:]).swapaxes(0, 1)
                    w = noise.perturb(members[0], v, z)
                else:
                    w = np.array([perturbed[k] for k in ks])
                held = resident.get(group)
                if held is None or held[0] != members:  # not the group's last stack
                    held = members, np.array([state.scores[i] for i in members])
                y = held[1] + g * w
                valid = valid and np.isfinite(y).all()
                out.append((group, domain, members, y))
        if not valid:
            rows = {i: y[j] for *_, members, y in out for j, i in enumerate(members)}
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
        gradients = game.gradient_stacks(history[0], update_set, checked=False) if batched else []
        if d_max and update_set:  # every updating player's lags, in one draw
            lags = sched_rng.integers(0, d_max + 1, size=(len(update_set), game.n_players))
            lags, last = lags.tolist(), len(history) - 1
        for k, i in enumerate(update_set):
            if not batched:
                delayed = history[0] if d_max == 0 else tuple(
                    [history[min(lag, last)][j] for j, lag in enumerate(lags[k])])
                try:
                    if noise.drawing:
                        v = np.stack([game.stochastic_gradient(i, [a[s] for a in delayed], rng)
                                      for s, rng in enumerate(noise.rngs)])
                    else:
                        v = game.gradient_stacks(delayed, [i], checked=False)[0]
                except (DomainError, np.linalg.LinAlgError):  # an earlier invalid score first
                    scores(update_set[:k], gradients, perturbed, n)
                    raise
                gradients.append(v)
            if perturbed is not None:
                perturbed.append(noise.perturb(i, gradients[k]))
        gammas, groups = scores(update_set, gradients, perturbed, n) if update_set else ([], [])
        for group, domain, members, y in groups:
            x = domain.block_diagonal(exp_projection_blocks(y, domain))
            resident[group] = members, y
            for j, i in enumerate(members):
                state.scores[i], state.actions[i] = y[j], x[j]
                state.counts[i] += 1
        state.n = n + 1
        history.insert(0, tuple(state.actions))
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
    """Epoch n's records, one per profile of the (S, d, d) stacks `actions`, in Python floats:
    one evaluation of the solver's own actions gives the residual's gradients and the
    utilities."""
    gradients, utilities = game.evaluate_stacks(actions, range(game.n_players), checked=False)
    residuals = nash_residual(game, actions, checked=False, gradients=gradients).tolist()
    utilities = zip(*[u.tolist() for u in utilities])
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
              async_schedule: AsyncSchedule | None = None, noises=None) -> list[RunTrace]:
    """One trace per seed of a non-empty sequence, each bit-identical to the seed's solo run.

    `noises` gives each seed its own NoiseModel (config.noise for every seed by
    default); they may differ only in sigma and level (`SeedNoise`), and seed k's
    trace is then that of its solo run under config.noise = noises[k].
    A run stops at max_iters, or at a logging checkpoint whose residual, on
    noiseless gradients, reaches stop_residual. A non-finite gradient or score,
    a game or domain error, or an eigensolver failure ends it as "diverged",
    with the error's message as diagnostic; the aborted epoch counts for no
    player. The trivial schedule (the default), which never draws, runs the
    seeds as one stack, which finished rows leave; `advance` then restarts from
    state.n, exact without delays. Any other schedule runs each seed alone.
    """
    noises = [config.noise] * len(seeds) if noises is None else list(noises)
    trivial = AsyncSchedule((1.0,) * game.n_players)
    schedule = (async_schedule or trivial).check(game.n_players, config.max_iters)
    if len(seeds) > 1 and schedule != trivial:
        return [run_batch(game, config, [seed], schedule, [model])[0]
                for seed, model in zip(seeds, noises, strict=True)]
    streams = [np.random.SeedSequence(seed).spawn(2) for seed in seeds]
    noise = SeedNoise(game, noises, [np.random.default_rng(s[0]) for s in streams],
                      config.max_iters)
    sched_rng = np.random.default_rng(streams[0][1])  # drawn only by a stack of one
    state = initial_state(game, config.y0, len(seeds))
    records, traces, live = [[] for _ in seeds], [None] * len(seeds), list(range(len(seeds)))

    def finish(k, row, status, diagnostic=None):  # seed k, at this row of the stack
        traces[k] = RunTrace(records[k], status, state.n - 1, seeds[k],
                             tuple(np.array(x[row]) for x in state.actions),
                             tuple(state.counts), diagnostic)

    try:
        while live:
            for n, gamma in advance(game, state, config.schedule, noise, config.max_iters,
                                    schedule, sched_rng):
                if n % config.log_every and n != config.max_iters:
                    continue
                kept = []
                logged = _log_record(game, config, state.actions, gamma, n)
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
            return [t or run_batch(game, config, [seed], schedule, [model])[0]
                    for seed, model, t in zip(seeds, noises, traces)]
        finish(live[0], 0, "diverged", str(err))
    return traces
