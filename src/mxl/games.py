"""Concave games on spectrahedra: players, payoff gradients, equilibrium diagnostics.

An action profile is a plain tuple/list of Hermitian arrays, one per player.
Player APIs take 0-based indices into `players`; the 1-based `PlayerSpec.pid`
is only a display label for traces and reports.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass

import numpy as np

from .spectral import (
    CHUNK_FLOATS,
    DomainError,
    Spectrahedron,
    hermitize,
    nuclear_norm,
    trace_inner,
)

VIOLATION_TOL = 1e-9

ActionProfile = tuple


@dataclass(frozen=True)
class PlayerSpec:
    pid: int
    domain: Spectrahedron


class GameModel(ABC):
    """N-player game with individually concave utilities and exact payoff gradients.

    A game defines one formula each, `utility_stack(i, actions)` and
    `gradient_stack(i, actions)`: player i's utilities and exact payoff gradients
    (d/dt u(X + tZ) = tr(Z V)) for a stack of profiles. There `actions[j]` stacks
    player j's actions as an (S, d, d) array, and entry s of a result depends on
    profile s only. `utility` and `payoff_gradient`, at one profile, are their
    stacks of one; a subclass may redefine neither.
    `gradient_stacks(actions, players)` gives the stacks of several players at
    one profile stack, by default a list of one `gradient_stack` each; a game overrides
    it to share work between players, with each row as `gradient_stack` gives it (a
    (P, S, d, d) array serves as the list).
    `evaluate_stacks(actions, players)` gives those gradients and the same players'
    utilities, by default through `gradient_stacks` and `utility_stack`; a game
    overrides it to take both from one pass, each row bit for bit as those give it.
    Both take `checked=False` for actions the solver's projection made (Hermitian,
    PSD, within the trace bound): a game may then skip its own checks of them. The
    solver asks for all its exact gradients this way, fresh or delayed. Oracles
    that draw random numbers (an unbiased minibatch estimate, say) override
    `stochastic_gradient`; by default it is the exact gradient.
    Implementations must be reentrant (no mutable state across calls).
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name, stacked in (("payoff_gradient", "gradient_stack"), ("utility", "utility_stack")):
            if name in vars(cls):
                raise TypeError(f"{cls.__name__} defines {name}; define {stacked} "
                                f"instead ({name} is its stack of one)")

    def __init__(self, domains):
        self.players = tuple(PlayerSpec(i + 1, d) for i, d in enumerate(domains))
        if not self.players:
            raise ValueError("a game needs at least one player")

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def domains(self) -> tuple[Spectrahedron, ...]:
        return tuple(p.domain for p in self.players)

    @abstractmethod
    def utility_stack(self, i: int, actions) -> np.ndarray: ...

    @abstractmethod
    def gradient_stack(self, i: int, actions) -> np.ndarray: ...

    def utility(self, i: int, actions) -> float:
        """Player i's utility at one profile: `utility_stack` on a stack of one."""
        return float(self.utility_stack(i, [np.asarray(a)[None] for a in actions])[0])

    def payoff_gradient(self, i: int, actions) -> np.ndarray:
        """Player i's exact gradient at one profile: `gradient_stack` on a stack of one."""
        return self.gradient_stack(i, [np.asarray(a)[None] for a in actions])[0]

    def gradient_stacks(self, actions, players, checked: bool = True) -> list[np.ndarray]:
        """`gradient_stack(i, actions)` for each i in `players`, in that order."""
        return [self.gradient_stack(i, actions) for i in players]

    def evaluate_stacks(self, actions, players, checked: bool = True):
        """(gradients, utilities): `gradient_stacks(actions, players)` and
        `utility_stack(i, actions)` for each i in `players`, in that order."""
        return (self.gradient_stacks(actions, players, checked),
                [self.utility_stack(i, actions) for i in players])

    def stochastic_gradient(self, i: int, actions, rng: np.random.Generator) -> np.ndarray:
        return self.payoff_gradient(i, actions)

    def require_feasible(self, actions) -> None:
        if len(actions) != self.n_players:
            raise DomainError(f"profile has {len(actions)} actions for {self.n_players} players")
        for spec, x in zip(self.players, actions):
            spec.domain.require_member(x, name=f"action of player {spec.pid}")

    def sample_profile(self, rng: np.random.Generator):
        """A random profile."""
        return tuple(p.domain.sample(rng) for p in self.players)

    def center_profile(self):
        return tuple(p.domain.center() for p in self.players)


class Report:
    """A report dataclass whose `to_dict` is its fields, leaving out the unset (None) ones."""

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass
class StabilityReport(Report):
    """Sampled certificate for a stability condition; not a proof.

    `worst_value` is the largest sampled value of the tested expression (which
    should be <= 0 for the condition to hold); `violations` counts samples
    exceeding VIOLATION_TOL.
    """

    check: str
    samples: int
    rng_seed: int
    violations: int = 0
    worst_value: float = float("-inf")
    radius: float | None = None

    def passed(self) -> bool:
        return self.violations == 0

    def add(self, values) -> None:
        """Fold in a batch of sampled values as a per-sample loop would: the largest value
        is the first of equal maxima, and never a NaN."""
        self.worst_value = max([self.worst_value, *values.tolist()])
        self.violations += int(np.count_nonzero(values > VIOLATION_TOL))

    def to_dict(self) -> dict:
        return {**super().to_dict(), "passed": self.passed()}


def nash_residual(game: GameModel, actions, checked: bool = True, gradients=None):
    """Worst unilateral first-order improvement over exact linear maximization.

    For each player the best linear response value on the spectrahedron is
    A * max(lambda_max(V), 0); the residual is the largest gap to the current
    payoff inner product. Zero (up to tolerance) iff the profile satisfies the
    first-order equilibrium conditions. One profile gives a float, (S, d, d) stacks
    one residual per profile. A non-finite gradient raises DomainError naming its player;
    a profile known to be feasible may skip the membership check (`checked=False`).
    `gradients`, every player's gradient stack at `actions` if already evaluated, spares
    their evaluation.
    """
    single = np.ndim(actions[0]) == 2
    stacks = [np.asarray(a)[None] if single else np.asarray(a) for a in actions]
    if checked:
        game.require_feasible(stacks)
    worst = np.zeros(len(stacks[0]))
    if gradients is None:
        gradients = game.gradient_stacks(stacks, range(game.n_players))
    for spec, x, v in zip(game.players, stacks, gradients):
        if not np.isfinite(v).all():
            raise DomainError(f"non-finite gradient for player {spec.pid} in the Nash residual")
        top = np.linalg.eigvalsh(hermitize(v))[:, -1]  # of whole matrices, as blocks change bits
        gap = spec.domain.trace_bound * np.maximum(top, 0.0) - trace_inner(x, v)
        worst = np.where(gap > worst, gap, worst)  # Python's max(worst, gap), per profile
    return float(worst[0]) if single else worst


def sample_batches(game: GameModel, rng: np.random.Generator, samples: int, parts: str):
    """Yield `samples` samples, each drawn part by part in the order of `parts`, as a per-sample
    loop draws them: "x" a profile (`sample_profile`), "z" one unit direction per player
    (`sample_direction`), "n" per player the raw (blocks, 2, m, m) standard normals that
    direction (and `inject_noise`'s Gaussian noise) is made of, "u" one uniform number
    (`rng.random()`). A batch of B samples comes with one entry per part: a list of per-player
    (B, d, d) stacks, (B, blocks, 2, m, m) for "n", or a (B,) array for "u". It holds at most
    CHUNK_FLOATS floats of matrices, and at least one sample."""
    floats = sum(c != "u" for c in parts) * sum(2 * d.dim ** 2 for d in game.domains)
    size = max(1, CHUNK_FLOATS // floats)
    draw = {"x": Spectrahedron._draw, "z": Spectrahedron._draw_direction,
            "n": Spectrahedron._draw_direction}
    assemble = {"x": Spectrahedron._members, "z": Spectrahedron._directions,
                "n": lambda _, normals: np.array(normals)}
    for start in range(0, samples, size):
        drawn = [[rng.random() if c == "u" else [draw[c](d, rng) for d in game.domains]
                  for c in parts] for _ in range(min(size, samples - start))]
        yield [np.array(part) if c == "u" else  # part: one draw per sample of the batch
               [assemble[c](d, x) for d, x in zip(game.domains, zip(*part))]
               for c, part in zip(parts, zip(*drawn))]


def check_monotonicity(game: GameModel, samples: int, seed: int = 0) -> StabilityReport:
    """Sample feasible pairs and test monotonicity tr[(X'-X)(V(X')-V(X))] <= 0."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    report = StabilityReport(check="monotonicity", samples=samples, rng_seed=seed)
    everyone = range(game.n_players)
    for xa, xb in sample_batches(game, rng, samples, "xx"):
        va, vb = game.gradient_stacks(xa, everyone), game.gradient_stacks(xb, everyone)
        report.add(sum(trace_inner(xb[i] - xa[i], vb[i] - va[i]) for i in everyone))
    return report


def check_variational_stability(
    game: GameModel, xstar, radius: float, samples: int, seed: int = 0
) -> StabilityReport:
    """Test tr[(X - X*) V(X)] <= 0 on samples within nuclear distance `radius` of X*."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    game.require_feasible(xstar)
    rng = np.random.default_rng(seed)
    report = StabilityReport(
        check="variational_stability", samples=samples, rng_seed=seed, radius=radius
    )
    everyone = range(game.n_players)
    for z, u in sample_batches(game, rng, samples, "zu"):
        if radius > 0:
            t = (radius * u / np.maximum(sum(nuclear_norm(d) for d in z), 1e-300))[:, None, None]
            x = [p.domain.project(xs + t * d) for p, xs, d in zip(game.players, xstar, z)]
        else:
            x = [np.repeat(np.asarray(xs, dtype=complex)[None], len(u), axis=0) for xs in xstar]
        v = game.gradient_stacks(x, everyone)
        report.add(sum(trace_inner(x[i] - xstar[i], v[i]) for i in everyone))
    return report


def hessian_quadratic_form(game: GameModel, actions, direction, eps: float = 1e-5):
    """Symmetrised directional curvature tr(Z (V(X+eZ) - V(X-eZ)))/(2e), a float at one
    profile X and direction Z, one value per profile for per-player (S, d, d) stacks of both.

    Shrinks eps up to three times if a perturbed profile leaves the domain (on a stack,
    for the whole stack), then raises.
    """
    single = np.ndim(actions[0]) == 2
    x = [np.asarray(a)[None] if single else np.asarray(a) for a in actions]
    game.require_feasible(x)
    everyone = range(game.n_players)
    for attempt in range(4):
        up = [a + eps * z for a, z in zip(x, direction)]
        dn = [a - eps * z for a, z in zip(x, direction)]
        if all(p.domain.contains(np.stack([u, d])) for p, u, d in zip(game.players, up, dn)):
            vu, vd = game.gradient_stacks(up, everyone), game.gradient_stacks(dn, everyone)
            q = sum(trace_inner(direction[i], vu[i] - vd[i]) for i in everyone) / (2.0 * eps)
            return float(q[0]) if single else q
        eps /= 10.0
    raise DomainError("perturbed profile infeasible even after shrinking eps 3 times")


def check_hessian_definiteness(
    game: GameModel, samples: int, seed: int = 0, eps: float = 1e-5
) -> StabilityReport:
    """Sample quadratic forms of the game curvature; all negative supports D(X) < 0.

    Sample points are pulled 2% toward the domain centers so the +/- eps
    perturbations stay feasible.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    report = StabilityReport(check="hessian", samples=samples, rng_seed=seed)
    for raw, z in sample_batches(game, rng, samples, "xz"):
        x = [0.98 * xi + 0.02 * p.domain.center() for xi, p in zip(raw, game.players)]
        report.add(hessian_quadratic_form(game, x, z, eps=eps))
    return report


def finite_diff_gradient_check(
    game: GameModel, i: int, actions, directions, eps: float = 1e-6
) -> float:
    """Worst relative error between tr(Z V_i) and central differences of the utility."""
    v = game.payoff_gradient(i, actions)
    worst = 0.0
    for z in directions:
        up = list(actions)
        dn = list(actions)
        up[i] = actions[i] + eps * z
        dn[i] = actions[i] - eps * z
        fd = (game.utility(i, tuple(up)) - game.utility(i, tuple(dn))) / (2.0 * eps)
        ref = trace_inner(z, v)
        worst = max(worst, abs(fd - ref) / max(abs(ref), abs(fd), 1e-12))
    return worst


class ZeroGame(GameModel):
    """Degenerate game with identically zero utilities."""

    def utility_stack(self, i, actions) -> np.ndarray:
        return np.zeros(len(actions[i]))

    def gradient_stack(self, i, actions) -> np.ndarray:
        return np.zeros(np.shape(actions[i]), dtype=complex)


class LinearGame(GameModel):
    """Decoupled linear utilities u_i = tr(C_i X_i)."""

    def __init__(self, payoff_matrices, trace_bounds=None):
        self._c = tuple(hermitize(np.asarray(c, dtype=complex)) for c in payoff_matrices)
        if trace_bounds is None:
            trace_bounds = [1.0] * len(self._c)
        super().__init__(
            Spectrahedron(c.shape[0], a) for c, a in zip(self._c, trace_bounds)
        )

    def utility_stack(self, i, actions) -> np.ndarray:
        return trace_inner(self._c[i], actions[i])

    def gradient_stack(self, i, actions) -> np.ndarray:
        return np.repeat(self._c[i][None], len(actions[i]), axis=0)


class BilinearGame(GameModel):
    """Two scalar players with u_i = x_i (x_j - threshold).

    threshold = 0 is the anti-monotone coupling toy; threshold in (0,1) is a
    coordination game with stable equilibria at (0,0) and (1,1) plus an
    unstable interior one at (t,t).
    """

    def __init__(self, threshold: float = 0.0):
        self.threshold = float(threshold)
        super().__init__([Spectrahedron(1, 1.0), Spectrahedron(1, 1.0)])

    def utility_stack(self, i, actions) -> np.ndarray:
        return actions[i][:, 0, 0].real * (actions[1 - i][:, 0, 0].real - self.threshold)

    def gradient_stack(self, i, actions) -> np.ndarray:
        return (actions[1 - i].real - self.threshold).astype(complex)
